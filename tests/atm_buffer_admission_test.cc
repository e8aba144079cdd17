// The busy-port BufferManager against the manager it replaced. The
// reference below is that manager's logic: every read walks every
// registered OutputPort, the degradation ladder divides occupancy by
// the budget in doubles, and each admission recomputes the budget and
// the elastic limit. One random script drives both managers over the
// same ports: several OutputPorts, one port released by hand, and
// ports registered mid-run, carrying data frames, RM, guaranteed-class
// and CLP cells, with MCR VCs, squeezes and evictions. Every verdict,
// and every read at random instants, must agree.
//
// A border test then pins the ladder's integer thresholds: for every
// budget from 1 to 4,096, squeezed or not, level() turns at exactly
// the least occupancy k with k / budget at or above each fraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "atm/buffer_manager.h"
#include "atm/link.h"
#include "atm/output_port.h"
#include "sim/id_table.h"
#include "sim/simulator.h"

namespace phantom::atm {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;
using Verdict = BufferManager::Verdict;

// ----------------------------------------------------- reference model

/// The replaced manager: sync() walks every registered port, and the
/// ladder and the elastic limit are computed from doubles at each use.
class RefBufferManager {
 public:
  explicit RefBufferManager(BufferConfig config) : config_{config} {
    config_.validate();
  }

  int register_port(const OutputPort* port = nullptr) {
    port_in_use_.push_back(0);
    ports_.push_back(port);
    return static_cast<int>(port_in_use_.size()) - 1;
  }

  Verdict admit(int port, const Cell& cell, Time now) {
    sync();
    const std::size_t budget = effective_budget();
    const bool exhausted = in_use_ >= budget;
    if (cell.high_priority || cell.is_rm()) {
      if (exhausted) {
        ++overflow_cells_;
        note_level();
        return Verdict::kDropOverflow;
      }
      account_accept(port);
      return Verdict::kAccept;
    }
    VcState& st = vcs_[cell.vc];
    const bool new_frame = !st.in_frame || cell.frame != st.cur_frame;
    if (new_frame) {
      st.in_frame = true;
      st.cur_frame = cell.frame;
      st.discarding = false;
      st.epd_frame = false;
      st.head_accepted = false;
      st.protected_frame = frame_fits_mcr(st, cell, now);
    }
    const DegradationLevel lvl = level_now();
    if (new_frame && !st.protected_frame &&
        lvl >= DegradationLevel::kShedding) {
      st.discarding = true;
      ++shed_cells_;
      note_level();
      if (cell.eof) st.in_frame = false;
      return Verdict::kDropShed;
    }
    if (new_frame && !st.protected_frame && config_.epd &&
        lvl >= DegradationLevel::kEarlyDiscard) {
      st.discarding = true;
      st.epd_frame = true;
      ++epd_frames_;
      note_level();
      if (cell.eof) st.in_frame = false;
      return Verdict::kDropEpd;
    }
    if (st.discarding) {
      if (cell.eof) {
        st.in_frame = false;
        if (st.head_accepted && in_use_ < budget) {
          account_accept(port);
          return Verdict::kAccept;
        }
      }
      if (st.epd_frame) return Verdict::kDropEpd;
      ++ppd_cells_;
      return Verdict::kDropPpd;
    }
    if (!st.protected_frame && lvl >= DegradationLevel::kShedding) {
      st.discarding = true;
      ++shed_cells_;
      note_level();
      if (cell.eof) st.in_frame = false;
      return Verdict::kDropShed;
    }
    bool overflow = exhausted;
    if (!overflow && !st.protected_frame) {
      const auto elastic_limit = static_cast<std::size_t>(
          static_cast<double>(budget) * (1.0 - config_.guaranteed_fraction));
      const auto port_limit = static_cast<std::size_t>(
          config_.alpha * static_cast<double>(budget - in_use_));
      overflow = in_use_ >= elastic_limit ||
                 port_in_use_[static_cast<std::size_t>(port)] >= port_limit;
    }
    if (overflow) {
      ++overflow_cells_;
      st.discarding = true;
      note_level();
      if (cell.eof) st.in_frame = false;
      return Verdict::kDropOverflow;
    }
    st.head_accepted = true;
    if (st.protected_frame) ++protected_cells_;
    account_accept(port);
    if (cell.eof) st.in_frame = false;
    return Verdict::kAccept;
  }

  void release(int port) { release_cells(static_cast<std::size_t>(port), 1); }

  void set_vc_mcr(int vc, Rate mcr, Time now) {
    VcState& st = vcs_[vc];
    st.mcr_cells_per_sec = mcr.cells_per_second();
    st.last_refill = now;
    st.tokens = st.token_cap;
  }
  bool evict_vc(int vc) { return vcs_.erase(vc); }

  void squeeze(double fraction) {
    sync();
    squeeze_fraction_ = fraction;
    grace_ = in_use_ > effective_budget() ? in_use_ : 0;
    note_level();
  }

  [[nodiscard]] std::size_t effective_budget() const {
    const auto eff = static_cast<std::size_t>(
        static_cast<double>(config_.budget_cells) * squeeze_fraction_);
    return std::max<std::size_t>(1, eff);
  }
  [[nodiscard]] std::size_t cells_in_use() const {
    sync();
    return in_use_;
  }
  [[nodiscard]] std::size_t cells_in_use(int port) const {
    sync();
    return port_in_use_[static_cast<std::size_t>(port)];
  }
  [[nodiscard]] std::size_t peak_cells_in_use() const { return peak_; }
  [[nodiscard]] bool within_budget() const {
    sync();
    return in_use_ <= std::max(effective_budget(), grace_);
  }
  [[nodiscard]] std::size_t grace_cells() const {
    sync();
    return grace_;
  }
  [[nodiscard]] DegradationLevel level() const {
    sync();
    return level_now();
  }
  [[nodiscard]] DegradationLevel worst_level() const { return worst_level_; }
  [[nodiscard]] std::uint64_t frames_epd_discarded() const {
    return epd_frames_;
  }
  [[nodiscard]] std::uint64_t cells_ppd_discarded() const {
    return ppd_cells_;
  }
  [[nodiscard]] std::uint64_t cells_shed() const { return shed_cells_; }
  [[nodiscard]] std::uint64_t cells_overflow_dropped() const {
    return overflow_cells_;
  }
  [[nodiscard]] std::uint64_t cells_accepted() const { return accepted_; }
  [[nodiscard]] std::uint64_t mcr_protected_cells() const {
    return protected_cells_;
  }
  [[nodiscard]] std::size_t tracked_vcs() const { return vcs_.size(); }

 private:
  struct VcState {
    double mcr_cells_per_sec = 0.0;
    double tokens = 0.0;
    double token_cap = 2.0;
    Time last_refill = Time::zero();
    bool in_frame = false;
    std::uint32_t cur_frame = 0;
    bool discarding = false;
    bool epd_frame = false;
    bool head_accepted = false;
    bool protected_frame = false;
  };

  static bool frame_fits_mcr(VcState& st, const Cell& cell, Time now) {
    if (st.mcr_cells_per_sec <= 0.0) return false;
    st.token_cap = std::max(2.0, 2.0 * static_cast<double>(cell.frame_len));
    st.tokens = std::min(
        st.token_cap,
        st.tokens + st.mcr_cells_per_sec * (now - st.last_refill).seconds());
    st.last_refill = now;
    const auto need = static_cast<double>(cell.frame_len);
    if (st.tokens < need) return false;
    st.tokens -= need;
    return true;
  }

  void account_accept(int port) {
    ++in_use_;
    ++port_in_use_[static_cast<std::size_t>(port)];
    peak_ = std::max(peak_, in_use_);
    ++accepted_;
    note_level();
  }

  void note_level() { worst_level_ = std::max(worst_level_, level_now()); }

  [[nodiscard]] DegradationLevel level_now() const {
    const std::size_t e = effective_budget();
    if (in_use_ >= e) return DegradationLevel::kExhausted;
    const double occupancy =
        static_cast<double>(in_use_) / static_cast<double>(e);
    if (occupancy >= config_.shed_fraction) {
      return DegradationLevel::kShedding;
    }
    if (occupancy >= config_.epd_fraction) {
      return DegradationLevel::kEarlyDiscard;
    }
    return DegradationLevel::kNormal;
  }

  void sync() const {
    for (std::size_t p = 0; p < ports_.size(); ++p) {
      if (ports_[p] == nullptr) continue;
      const std::size_t queued = ports_[p]->queue_length();
      if (port_in_use_[p] > queued) release_cells(p, port_in_use_[p] - queued);
    }
  }

  void release_cells(std::size_t port, std::size_t cells) const {
    in_use_ -= cells;
    port_in_use_[port] -= cells;
    if (grace_ > 0) {
      grace_ = in_use_ > effective_budget() ? std::min(grace_, in_use_) : 0;
    }
  }

  BufferConfig config_;
  double squeeze_fraction_ = 1.0;
  mutable std::size_t in_use_ = 0;
  std::size_t peak_ = 0;
  mutable std::size_t grace_ = 0;
  mutable std::vector<std::size_t> port_in_use_;
  std::vector<const OutputPort*> ports_;
  sim::IdTable<VcState> vcs_;
  DegradationLevel worst_level_ = DegradationLevel::kNormal;
  std::uint64_t epd_frames_ = 0;
  std::uint64_t ppd_cells_ = 0;
  std::uint64_t shed_cells_ = 0;
  std::uint64_t overflow_cells_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t protected_cells_ = 0;
};

// ------------------------------------------------------------- script

const Rate kRate = Rate::mbps(150);
constexpr int kFirstPorts = 3;  // OutputPorts registered at the start
constexpr int kLatePorts = 3;   // OutputPorts registered mid-run
constexpr int kVcs = 10;
constexpr int kMcrVcs[] = {4, 7};

struct Action {
  enum Kind { kCell, kSqueeze, kRegister, kEvict, kObserve };
  Time at;
  Kind kind = kCell;
  /// kCell: the target, as an index into the ports registered by then
  /// (taken modulo their number), or -1 for the hand-released port.
  int port = 0;
  Cell cell;
  double fraction = 1.0;  // kSqueeze
  int vc = 0;             // kEvict
};

std::vector<Action> make_script(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
  };
  const std::int64_t t_ns = kRate.transmission_time(kCellBits).nanoseconds();
  constexpr std::int64_t kSlots = 400;
  auto instant = [&](std::int64_t slot) {
    return Time::ns(slot * t_ns + uniform(0, t_ns - 1));
  };

  std::vector<Action> s;
  // Cells: a calm background plus two hot windows that overload the
  // ports and the shared budget. VC 0 is the guaranteed-class stream;
  // the others send frames of 1-6 cells, an RM cell now and then, and
  // a CLP tag on some data cells.
  std::uint32_t frame[kVcs] = {};
  std::uint16_t left[kVcs] = {};
  std::uint16_t len[kVcs] = {};
  const std::int64_t hot[2] = {uniform(20, 150), uniform(200, 330)};
  for (int i = 0; i < 900; ++i) {
    const int window = static_cast<int>(uniform(0, 2));
    const std::int64_t slot = window == 2
                                  ? uniform(0, kSlots)
                                  : uniform(hot[window], hot[window] + 50);
    const int vc = static_cast<int>(uniform(0, kVcs - 1));
    Action a;
    a.at = instant(slot);
    a.port = uniform(0, 11) == 0 ? -1 : vc % (kFirstPorts + kLatePorts);
    Cell& c = a.cell;
    if (vc == 0) {
      c = Cell::data(vc);
      c.high_priority = true;
    } else if (uniform(0, 7) == 0) {
      c = Cell::forward_rm(vc, Rate::mbps(10), Rate::mbps(100));
      if (uniform(0, 1) == 0) c.kind = CellKind::kBackwardRm;
    } else {
      c = Cell::data(vc);
      if (left[vc] == 0) {
        len[vc] = static_cast<std::uint16_t>(uniform(1, 6));
        left[vc] = len[vc];
        ++frame[vc];
      }
      c.frame = frame[vc];
      c.frame_len = len[vc];
      c.eof = --left[vc] == 0;
      c.clp = uniform(0, 4) == 0;
    }
    s.push_back(a);
  }
  // Squeeze windows: one inside each hot window, and a deep one
  // anywhere.
  const std::int64_t squeeze_from[3] = {hot[0] + uniform(0, 40),
                                        hot[1] + uniform(0, 40),
                                        uniform(0, kSlots)};
  const double squeeze_to[3] = {0.5, 0.25, 0.1};
  for (int i = 0; i < 3; ++i) {
    Action a;
    a.kind = Action::kSqueeze;
    a.fraction = squeeze_to[i];
    a.at = instant(squeeze_from[i]);
    s.push_back(a);
    a.fraction = 1.0;
    a.at = instant(squeeze_from[i] + uniform(5, 60));
    s.push_back(a);
  }
  for (int i = 0; i < kLatePorts; ++i) {
    Action a;
    a.kind = Action::kRegister;
    a.at = instant(uniform(0, kSlots));
    s.push_back(a);
  }
  for (int i = 0; i < 4; ++i) {
    Action a;
    a.kind = Action::kEvict;
    a.vc = static_cast<int>(uniform(1, kVcs - 1));
    a.at = instant(uniform(0, kSlots));
    s.push_back(a);
  }
  for (int i = 0; i < 120; ++i) {
    Action a;
    a.kind = Action::kObserve;
    a.at = instant(uniform(0, kSlots + 40));
    s.push_back(a);
  }
  std::stable_sort(s.begin(), s.end(), [](const Action& a, const Action& b) {
    return a.at < b.at;
  });
  return s;
}

// ------------------------------------------------------------ readings

/// Every read a manager offers, with its counters.
struct Reading {
  DegradationLevel level = DegradationLevel::kNormal;
  std::size_t in_use = 0;
  std::vector<std::size_t> port_in_use;
  std::size_t grace = 0;
  bool within_budget = false;
  std::size_t budget = 0;
  std::size_t peak = 0;
  DegradationLevel worst = DegradationLevel::kNormal;
  std::uint64_t accepted = 0;
  std::uint64_t epd_frames = 0;
  std::uint64_t ppd_cells = 0;
  std::uint64_t shed_cells = 0;
  std::uint64_t overflow_cells = 0;
  std::uint64_t protected_cells = 0;
  std::size_t tracked_vcs = 0;
  friend bool operator==(const Reading&, const Reading&) = default;
};

/// Every read of `bm`, whose first `ports` ids are registered.
template <typename Manager>
Reading read(const Manager& bm, int ports) {
  Reading r;
  r.level = bm.level();
  r.grace = bm.grace_cells();
  r.within_budget = bm.within_budget();
  r.in_use = bm.cells_in_use();
  for (int p = 0; p < ports; ++p) r.port_in_use.push_back(bm.cells_in_use(p));
  r.budget = bm.effective_budget();
  r.peak = bm.peak_cells_in_use();
  r.worst = bm.worst_level();
  r.accepted = bm.cells_accepted();
  r.epd_frames = bm.frames_epd_discarded();
  r.ppd_cells = bm.cells_ppd_discarded();
  r.shed_cells = bm.cells_shed();
  r.overflow_cells = bm.cells_overflow_dropped();
  r.protected_cells = bm.mcr_protected_cells();
  r.tracked_vcs = bm.tracked_vcs();
  return r;
}

class NullSink final : public CellSink {
 public:
  void receive_cell(Cell) override {}
};

BufferConfig small_budget() {
  BufferConfig cfg;
  cfg.budget_cells = 48;
  cfg.alpha = 2.0;
  cfg.epd_fraction = 0.55;
  cfg.shed_fraction = 0.8;
  return cfg;
}

/// What one script run covered, summed by the caller.
struct Coverage {
  std::uint64_t verdicts[5] = {};
  std::uint64_t late_port_cells = 0;
  std::uint64_t hand_port_cells = 0;
  std::uint64_t readings = 0;
};

/// Runs the script with both managers over one set of ports; returns
/// the index of the first disagreement, or -1.
long run_script(const std::vector<Action>& script, std::uint64_t seed,
                Coverage& cov) {
  Simulator sim{seed};
  BufferManager bm{small_budget()};
  RefBufferManager ref{small_budget()};
  NullSink sink;
  std::vector<std::unique_ptr<OutputPort>> ports;
  std::vector<int> ids;  // manager id of ports[i]
  const Time cell_time = kRate.transmission_time(kCellBits);
  auto add_port = [&] {
    const auto i = static_cast<std::int64_t>(ports.size());
    ports.push_back(std::make_unique<OutputPort>(
        sim, kRate, 100'000, Link{sim, cell_time * (i + 1), sink}, nullptr,
        i == 0 ? QueueDiscipline::kStrictPriority : QueueDiscipline::kFifo));
    const int id = bm.register_port(ports.back().get());
    const int ref_id = ref.register_port(ports.back().get());
    if (id != ref_id) throw std::logic_error{"managers number ports apart"};
    ids.push_back(id);
  };
  for (int p = 0; p < kFirstPorts; ++p) add_port();
  // Registered after the first OutputPorts and without one: both
  // managers hand it the same id, and the script releases its cells.
  const int hand = bm.register_port();
  if (ref.register_port() != hand) throw std::logic_error{"hand port id"};
  Time hand_departure = Time::zero();
  for (const int vc : kMcrVcs) {
    bm.set_vc_mcr(vc, Rate::mbps(vc == 4 ? 20 : 3), Time::zero());
    ref.set_vc_mcr(vc, Rate::mbps(vc == 4 ? 20 : 3), Time::zero());
  }

  long mismatch = -1;
  auto fail = [&](long i) {
    if (mismatch < 0) mismatch = i;
  };
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Action& a = script[i];
    const long index = static_cast<long>(i);
    sim.schedule_at(a.at, [&, a, index] {
      switch (a.kind) {
        case Action::kCell: {
          const bool by_hand = a.port < 0;
          const std::size_t p =
              by_hand ? 0 : static_cast<std::size_t>(a.port) % ports.size();
          const int id = by_hand ? hand : ids[p];
          const Verdict v = bm.admit(id, a.cell, sim.now());
          if (v != ref.admit(id, a.cell, sim.now())) fail(index);
          ++cov.verdicts[static_cast<int>(v)];
          if (v != Verdict::kAccept) break;
          if (!by_hand) {
            ports[p]->send(a.cell);
            if (static_cast<int>(p) >= kFirstPorts) ++cov.late_port_cells;
            break;
          }
          ++cov.hand_port_cells;
          hand_departure = std::max(hand_departure, sim.now()) + cell_time;
          sim.schedule_at(hand_departure, [&] {
            bm.release(hand, Cell{});
            ref.release(hand);
          });
          break;
        }
        case Action::kSqueeze:
          bm.squeeze(a.fraction);
          ref.squeeze(a.fraction);
          break;
        case Action::kRegister:
          add_port();
          break;
        case Action::kEvict:
          if (bm.evict_vc(a.vc) != ref.evict_vc(a.vc)) fail(index);
          break;
        case Action::kObserve: {
          const int n = static_cast<int>(ports.size()) + 1;
          if (!(read(bm, n) == read(ref, n))) fail(index);
          ++cov.readings;
          break;
        }
      }
    });
  }
  sim.run();
  // Everything has left: both managers read empty, and agree on the
  // run's totals.
  const int n = static_cast<int>(ports.size()) + 1;
  const auto end = static_cast<long>(script.size());
  if (!(read(bm, n) == read(ref, n)) || bm.cells_in_use() != 0) fail(end);
  return mismatch;
}

TEST(BufferAdmissionDifferentialTest, AgreesWithEveryPortManagerOnRandomScripts) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("script seed " + std::to_string(seed));
    const std::vector<Action> script = make_script(seed);
    const long mismatch = run_script(script, seed, cov);
    ASSERT_EQ(mismatch, -1) << "verdicts or reads diverge at script action "
                            << mismatch;
  }
  // The scripts reach every verdict and every kind of port.
  for (const Verdict v : {Verdict::kAccept, Verdict::kDropOverflow,
                          Verdict::kDropEpd, Verdict::kDropPpd,
                          Verdict::kDropShed}) {
    EXPECT_GT(cov.verdicts[static_cast<int>(v)], 100u)
        << "verdict " << static_cast<int>(v);
  }
  EXPECT_GT(cov.late_port_cells, 1000u);
  EXPECT_GT(cov.hand_port_cells, 1000u);
  EXPECT_GT(cov.readings, 5000u);
}

// ------------------------------------------------------- ladder borders

/// The least occupancy k with k / budget >= fraction, by counting up.
std::size_t least_reaching(double fraction, std::size_t budget) {
  std::size_t k = 0;
  while (static_cast<double>(k) / static_cast<double>(budget) < fraction) ++k;
  return k;
}

/// The occupancy at which level() first reads each rung while one
/// hand-released port fills the manager with RM cells (only exhaustion
/// refuses them), and whether the level only ever rose.
struct Turns {
  std::size_t epd = 0;
  std::size_t shed = 0;
  std::size_t exhausted = 0;
  bool monotone = true;
  friend bool operator==(const Turns&, const Turns&) = default;
};

Turns fill(BufferManager& bm, int port) {
  Turns t;
  const Cell rm = Cell::forward_rm(1, Rate::mbps(1), Rate::mbps(1));
  DegradationLevel last = bm.level();
  for (std::size_t k = bm.cells_in_use(); last != DegradationLevel::kExhausted;) {
    if (bm.admit(port, rm, Time::zero()) != Verdict::kAccept) {
      t.monotone = false;  // refused below the budget
      break;
    }
    ++k;
    const DegradationLevel lvl = bm.level();
    if (lvl < last) t.monotone = false;
    if (lvl >= DegradationLevel::kEarlyDiscard && t.epd == 0) t.epd = k;
    if (lvl >= DegradationLevel::kShedding && t.shed == 0) t.shed = k;
    if (lvl == DegradationLevel::kExhausted) t.exhausted = k;
    last = lvl;
  }
  return t;
}

/// What fill() must read on an empty manager whose effective budget is
/// `budget`: each rung at its least reaching occupancy, unless the
/// budget itself comes first.
Turns expected_turns(const BufferConfig& cfg, std::size_t budget) {
  Turns t;
  t.epd = std::min(least_reaching(cfg.epd_fraction, budget), budget);
  t.shed = std::min(least_reaching(cfg.shed_fraction, budget), budget);
  t.exhausted = budget;
  return t;
}

BufferConfig fractions(double epd, double shed) {
  BufferConfig cfg;
  cfg.epd_fraction = epd;
  cfg.shed_fraction = shed;
  return cfg;
}

TEST(BufferLadderBorderTest, TurnsAtTheLeastReachingOccupancyForEveryBudget) {
  // The default fractions, and pairs that no budget divides exactly.
  for (BufferConfig cfg : {fractions(0.70, 0.85), fractions(0.1, 0.3),
                           fractions(1.0 / 3.0, 2.0 / 3.0)}) {
    SCOPED_TRACE("epd " + std::to_string(cfg.epd_fraction));
    for (std::size_t budget = 1; budget <= 4096; ++budget) {
      cfg.budget_cells = budget;
      BufferManager bm{cfg};
      const int port = bm.register_port();
      const Turns want = expected_turns(cfg, budget);
      const Turns got = fill(bm, port);
      ASSERT_TRUE(got.monotone) << "budget " << budget;
      ASSERT_EQ(got, want) << "budget " << budget << ": EPD at " << got.epd
                           << " (want " << want.epd << "), shedding at "
                           << got.shed << " (want " << want.shed << ")";
    }
  }
}

TEST(BufferLadderBorderTest, SqueezedBudgetsTurnAtTheirOwnBorders) {
  const BufferConfig base = fractions(0.70, 0.85);
  std::size_t checked = 0;
  for (const std::size_t configured :
       {1u, 2u, 3u, 7u, 10u, 99u, 100u, 1000u, 4096u, 8192u}) {
    for (const double fraction :
         {0.01, 0.1, 0.13, 0.2, 0.33, 0.5, 0.7, 0.77, 0.9, 0.99, 1.0}) {
      SCOPED_TRACE(std::to_string(configured) + " cells squeezed to " +
                   std::to_string(fraction));
      BufferConfig cfg = base;
      cfg.budget_cells = configured;
      const std::size_t budget = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(configured) *
                                      fraction));
      BufferManager bm{cfg};
      const int port = bm.register_port();
      bm.squeeze(fraction);
      ASSERT_EQ(bm.effective_budget(), budget);
      const Turns got = fill(bm, port);
      ASSERT_TRUE(got.monotone);
      ASSERT_EQ(got, expected_turns(cfg, budget));

      // Unsqueezed with `budget` cells buffered, the ladder reads the
      // configured budget's rung for that occupancy; squeezed again,
      // the squeezed one's.
      bm.unsqueeze();
      const Turns full = expected_turns(cfg, configured);
      const DegradationLevel want =
          budget >= full.exhausted ? DegradationLevel::kExhausted
          : budget >= full.shed    ? DegradationLevel::kShedding
          : budget >= full.epd     ? DegradationLevel::kEarlyDiscard
                                   : DegradationLevel::kNormal;
      EXPECT_EQ(bm.level(), want);
      bm.squeeze(fraction);
      EXPECT_EQ(bm.level(), DegradationLevel::kExhausted);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 110u);
}

}  // namespace
}  // namespace phantom::atm
