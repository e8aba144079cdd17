// Lazy source pacing against the evented source it replaces. An
// AbrSource files no event of its own per send: it keeps its next send
// instant and its cells in flight, files only the arrival of its next
// cell at the far end of its access link, and runs a send's work at that
// arrival or at the first call that changes or reads it. The reference
// below is the source as it was before, one pacing event per cell, with
// one change: the pacing event re-files itself once at its own instant,
// so that the send runs after every event pending there (sends go last
// in their instant). One random script drives both:
//  * backward RM cells with CI and ER, on a 1 us grid and with grid-
//    aligned rates, so that many land on send instants; gaps in them long
//    enough for the Crm/CDF and ADTF decay and for out-of-rate FRMs;
//  * set_active off and on, set_behavior greedy, forge, partial and
//    comply, and set_demand;
//  * access delays of zero, under one cell time and far above it;
//  * reads at random instants, at the reference's send and arrival
//    instants from callbacks filed before the run, and outside the run
//    between run_until() calls.
// Every cell (fields, send and arrival instant), every read (counters,
// ACR, the rate envelope and the access link's ledger), the ACR series
// and the event log export agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "atm/abr_source.h"
#include "atm/link.h"
#include "obs/event_log.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace phantom::atm {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

/// A rate whose cell time is `us` microseconds exactly.
Rate grid_rate(std::int64_t us) {
  return Rate::bps(static_cast<double>(kCellBits) * 1e6 /
                   static_cast<double>(us));
}

// ----------------------------------------------------- reference model

/// The evented source: one pacing event per cell, whose send runs after
/// every event pending at its instant.
class EventedSource final : public CellSink {
 public:
  EventedSource(Simulator& sim, int vc, AbrParams params, Link link)
      : sim_{&sim},
        vc_{vc},
        params_{params},
        link_{std::move(link)},
        acr_{params.icr},
        last_granted_er_{std::max(params.icr, params.mcr)} {}

  void start(Time at) {
    started_ = true;
    sim_->schedule_at(at, [this] {
      active_ = true;
      last_brm_time_ = sim_->now();
      set_acr(acr_);
      if (!sending_) {
        sending_ = true;
        send_next_cell();
      }
      on_trm_check();
    });
  }

  void set_active(bool active) {
    if (active == active_) return;
    active_ = active;
    if (!active_) {
      ++epoch_;
      sending_ = false;
      return;
    }
    const Time idle = sim_->now() - last_send_;
    const Time timeout =
        acr_.transmission_time(kCellBits * params_.nrm) * params_.tof;
    if (obeys() && idle > timeout && acr_ > params_.icr) set_acr(params_.icr);
    if (started_ && !sending_) {
      sending_ = true;
      send_next_cell();
    }
  }

  void set_demand(Rate demand) { demand_ = demand; }

  void set_behavior(SourceBehavior behavior, double compliance) {
    behavior_ = behavior;
    compliance_ = std::clamp(compliance, 0.0, 1.0);
    switch (behavior_) {
      case SourceBehavior::kGreedy:
      case SourceBehavior::kForging:
        set_acr(params_.pcr);
        break;
      case SourceBehavior::kCompliant:
        set_acr(params_.icr);
        break;
      case SourceBehavior::kPartial:
        break;
    }
  }

  void receive_cell(Cell cell) override {
    if (cell.kind != CellKind::kBackwardRm || cell.vc != vc_) return;
    ++brm_received_;
    frm_since_brm_ = 0;
    last_brm_time_ = sim_->now();
    if (behavior_ == SourceBehavior::kGreedy ||
        behavior_ == SourceBehavior::kForging) {
      last_granted_er_ = params_.pcr;
      set_acr(params_.pcr);
      return;
    }
    Rate next = acr_;
    if (cell.ci) {
      next = next * (1.0 - static_cast<double>(params_.nrm) / params_.rdf);
    } else {
      next = next + params_.air_nrm;
    }
    Rate er = cell.er;
    if (behavior_ == SourceBehavior::kPartial) {
      er = std::min(
          Rate::bps(er.bits_per_sec() +
                    (1.0 - compliance_) *
                        (params_.pcr.bits_per_sec() - er.bits_per_sec())),
          params_.pcr);
    }
    last_granted_er_ = std::min(er, params_.pcr);
    next = std::min(next, er);
    next = std::min(next, params_.pcr);
    next = std::max(next, params_.mcr);
    next = std::max(next, params_.tcr);
    set_acr(next);
  }

  [[nodiscard]] Rate acr() const { return acr_; }
  [[nodiscard]] Rate effective_rate() const { return std::min(acr_, demand_); }
  [[nodiscard]] std::uint64_t data_cells_sent() const { return data_sent_; }
  [[nodiscard]] std::uint64_t rm_cells_sent() const { return rm_sent_; }
  [[nodiscard]] std::uint64_t brm_cells_received() const {
    return brm_received_;
  }
  [[nodiscard]] std::uint64_t frms_since_brm() const { return frm_since_brm_; }
  [[nodiscard]] std::uint64_t forged_brm_sent() const {
    return forged_brm_sent_;
  }
  [[nodiscard]] Rate stale_rate_envelope() const {
    if (!active_) return params_.pcr;
    const Rate icr_floor = std::max(params_.icr, params_.mcr);
    if (sim_->now() - last_brm_time_ > params_.adtf + params_.trm * 2.0) {
      return icr_floor;
    }
    if (frm_since_brm_ < static_cast<std::uint64_t>(params_.crm)) {
      return params_.pcr;
    }
    const auto overdue =
        frm_since_brm_ - static_cast<std::uint64_t>(params_.crm);
    const double decayed = last_granted_er_.bits_per_sec() *
                           std::pow(params_.cdf, static_cast<double>(overdue));
    return std::max(icr_floor, Rate::bps(decayed));
  }
  [[nodiscard]] const Link& link() const { return link_; }
  void set_event_log(obs::EventLog* log) { tap_ = obs::Tap{log}; }
  void set_acr_trace(sim::Trace* trace) { acr_trace_ = trace; }
  /// Every instant a send ran at, in order.
  std::vector<Time> sends;

 private:
  [[nodiscard]] bool obeys() const {
    return behavior_ == SourceBehavior::kCompliant ||
           behavior_ == SourceBehavior::kPartial;
  }

  [[nodiscard]] Cell make_forward_rm() const {
    if (behavior_ == SourceBehavior::kForging) {
      return Cell::forward_rm(vc_, params_.mcr, params_.pcr * 10.0);
    }
    return Cell::forward_rm(vc_, effective_rate(), params_.pcr);
  }

  void pre_frm_update() {
    if (obeys() && params_.feedback_decay) {
      const Rate icr_floor = std::max(params_.icr, params_.mcr);
      if (sim_->now() - last_brm_time_ > params_.adtf && acr_ > icr_floor) {
        set_acr(icr_floor);
      } else if (frm_since_brm_ >= static_cast<std::uint64_t>(params_.crm)) {
        const Rate floor = std::max(params_.mcr, std::min(acr_, params_.icr));
        const Rate cut = acr_ * params_.cdf;
        if (cut < acr_) set_acr(std::max(floor, cut));
      }
    }
    ++frm_since_brm_;
  }

  void emit_forward_rm() {
    pre_frm_update();
    Cell cell = make_forward_rm();
    cell.sent_at = sim_->now();
    ++rm_sent_;
    last_rm_sent_ = sim_->now();
    link_.deliver(cell);
  }

  void emit_forged_backward_rm() {
    Cell cell;
    cell.kind = CellKind::kBackwardRm;
    cell.vc = vc_;
    cell.ccr = params_.pcr;
    cell.er = params_.pcr * 10.0;
    cell.ci = false;
    cell.sent_at = sim_->now();
    ++rm_sent_;
    ++forged_brm_sent_;
    link_.deliver(cell);
  }

  void on_trm_check() {
    if (active_ && sim_->now() - last_rm_sent_ >= params_.trm) {
      emit_forward_rm();
    }
    sim_->schedule(params_.trm / 2, [this] { on_trm_check(); });
  }

  void send_next_cell() {
    if (!active_) {
      sending_ = false;
      return;
    }
    sends.push_back(sim_->now());
    Cell cell;
    if (cells_since_rm_ == 0) {
      pre_frm_update();
      cell = make_forward_rm();
      ++rm_sent_;
      last_rm_sent_ = sim_->now();
      if (behavior_ == SourceBehavior::kForging) emit_forged_backward_rm();
    } else {
      cell = Cell::data(vc_);
      cell.frame = frame_id_;
      cell.frame_len = static_cast<std::uint16_t>(params_.frame_cells);
      if (++frame_pos_ >= params_.frame_cells) {
        cell.eof = true;
        frame_pos_ = 0;
        ++frame_id_;
      }
      ++data_sent_;
    }
    cells_since_rm_ =
        (cells_since_rm_ + 1) % static_cast<std::uint64_t>(params_.nrm);
    cell.sent_at = sim_->now();
    last_send_ = sim_->now();
    link_.deliver(cell);
    // The pacing event, then the send at the back of its instant.
    sim_->schedule(effective_rate().transmission_time(kCellBits),
                   [this, epoch = epoch_] {
                     if (epoch != epoch_) return;
                     sim_->schedule(Time::zero(), [this, epoch] {
                       if (epoch == epoch_) send_next_cell();
                     });
                   });
  }

  void set_acr(Rate r) {
    acr_ = r;
    if (acr_trace_ != nullptr) acr_trace_->record(sim_->now(), r.bits_per_sec());
    if (tap_) {
      tap_.record({.time = sim_->now(),
                   .kind = obs::EventKind::kSourceRate,
                   .vc = vc_,
                   .a = r.mbits_per_sec()});
    }
  }

  Simulator* sim_;
  int vc_;
  AbrParams params_;
  Link link_;
  Rate acr_;
  Rate demand_ = Rate::bps(1e18);
  bool active_ = false;
  bool started_ = false;
  bool sending_ = false;
  std::uint64_t cells_since_rm_ = 0;
  std::uint32_t frame_id_ = 0;
  int frame_pos_ = 0;
  std::uint64_t data_sent_ = 0;
  std::uint64_t rm_sent_ = 0;
  std::uint64_t brm_received_ = 0;
  Time last_send_ = Time::zero();
  Time last_rm_sent_ = Time::zero();
  std::uint64_t frm_since_brm_ = 0;
  Time last_brm_time_ = Time::zero();
  Rate last_granted_er_;
  std::uint64_t epoch_ = 0;
  SourceBehavior behavior_ = SourceBehavior::kCompliant;
  double compliance_ = 1.0;
  std::uint64_t forged_brm_sent_ = 0;
  sim::Trace* acr_trace_ = nullptr;
  obs::Tap tap_;
};

// ------------------------------------------------------ observations

/// A cell as it reached the far end of the access link.
struct Arrival {
  CellKind kind;
  int vc;
  double ccr;
  double er;
  bool ci;
  std::uint32_t frame;
  std::uint16_t frame_len;
  bool eof;
  Time sent;
  Time at;
  friend bool operator==(const Arrival&, const Arrival&) = default;
};

class Collector final : public CellSink {
 public:
  explicit Collector(Simulator& sim) : sim_{&sim} {}
  void receive_cell(Cell c) override {
    cells.push_back(Arrival{c.kind, c.vc, c.ccr.bits_per_sec(),
                            c.er.bits_per_sec(), c.ci, c.frame, c.frame_len,
                            c.eof, c.sent_at, sim_->now()});
  }
  std::vector<Arrival> cells;

 private:
  Simulator* sim_;
};

/// Everything a read sees.
struct Read {
  Time at;
  double acr = 0.0;
  double effective = 0.0;
  double envelope = 0.0;
  std::uint64_t data = 0;
  std::uint64_t rm = 0;
  std::uint64_t brm = 0;
  std::uint64_t frms_since_brm = 0;
  std::uint64_t forged = 0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t lost = 0;
  friend bool operator==(const Read&, const Read&) = default;
};

void PrintTo(const Read& r, std::ostream* os) {
  *os << "{at " << r.at.to_string() << ", acr " << r.acr << ", effective "
      << r.effective << ", envelope " << r.envelope << ", data " << r.data
      << ", rm " << r.rm << ", brm " << r.brm << ", frms since brm "
      << r.frms_since_brm << ", forged " << r.forged << ", offered "
      << r.offered << ", delivered " << r.delivered << ", in flight "
      << r.in_flight << ", lost " << r.lost << "}";
}

/// Reads everything, the `first`-th reader (mod their number) first:
/// each reader must run the due sends itself.
template <typename Source>
Read read(const Simulator& sim, const Source& src, std::size_t first) {
  Read r;
  r.at = sim.now();
  const LinkState& link = *src.link().state();
  const std::function<void()> readers[] = {
      [&] { r.acr = src.acr().bits_per_sec(); },
      [&] { r.effective = src.effective_rate().bits_per_sec(); },
      [&] { r.envelope = src.stale_rate_envelope().bits_per_sec(); },
      [&] { r.data = src.data_cells_sent(); },
      [&] { r.rm = src.rm_cells_sent(); },
      [&] { r.brm = src.brm_cells_received(); },
      [&] { r.frms_since_brm = src.frms_since_brm(); },
      [&] { r.forged = src.forged_brm_sent(); },
      [&] { r.offered = link.offered(); },
      [&] { r.delivered = link.counters().delivered; },
      [&] { r.in_flight = link.in_flight(); },
      [&] { r.lost = link.lost(); },
  };
  constexpr std::size_t n = std::size(readers);
  for (std::size_t i = 0; i < n; ++i) readers[(first + i) % n]();
  return r;
}

// ------------------------------------------------------------- script

constexpr int kVc = 3;

AbrParams script_params(std::mt19937_64& rng) {
  AbrParams p;
  p.pcr = grid_rate(10);  // 42.4 Mb/s
  p.icr = grid_rate(50);
  p.air_nrm = grid_rate(200);
  p.nrm = 8;
  p.rdf = 64.0;
  p.trm = Time::ms(1);
  p.crm = 4;
  p.cdf = 0.5;
  p.adtf = Time::ms(3);
  p.frame_cells = static_cast<int>(
      std::uniform_int_distribution<int>{1, 3}(rng));
  return p;
}

struct Action {
  enum Kind { kBrm, kActive, kBehavior, kDemand, kRead };
  Time at;
  Kind kind = kRead;
  bool flag = false;  // kBrm: CI; kActive: on
  Rate rate;          // kBrm: ER; kDemand: demand
  SourceBehavior behavior = SourceBehavior::kCompliant;
  double compliance = 1.0;
};

struct Script {
  AbrParams params;
  Time delay;
  Time start;
  std::vector<Action> actions;
  std::vector<Time> checkpoints;  // run_until() these, reading after each
  Time end;
};

constexpr std::int64_t kScriptUs = 20'000;

bool by_time(const Action& a, const Action& b) { return a.at < b.at; }

Script make_script(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
  };
  auto grid = [&](std::int64_t lo_us, std::int64_t hi_us) {
    return Time::us(uniform(lo_us, hi_us));
  };
  static constexpr std::int64_t kGridUs[] = {10, 12, 16, 20, 25, 40,
                                             50, 80, 100, 200, 400};
  auto any_grid_rate = [&] {
    return grid_rate(kGridUs[uniform(0, std::size(kGridUs) - 1)]);
  };
  Script s;
  s.params = script_params(rng);
  switch (uniform(0, 2)) {
    case 0: s.delay = Time::zero(); break;
    case 1: s.delay = Time::ns(uniform(1, 10'000)); break;  // under a cell
    default: s.delay = Time::us(uniform(300, 2'000)); break;
  }
  s.start = grid(0, 100);

  // Backward RM cells, except in two gaps that let feedback go stale.
  const std::int64_t gap1 = uniform(2'000, 8'000);
  const std::int64_t gap2 = uniform(11'000, 15'000);
  for (int i = 0; i < 250; ++i) {
    const std::int64_t us = uniform(0, kScriptUs);
    if ((us > gap1 && us < gap1 + 4'500) || (us > gap2 && us < gap2 + 4'500)) {
      continue;
    }
    Action a;
    a.kind = Action::kBrm;
    a.at = Time::us(us);
    a.flag = uniform(0, 3) == 0;
    a.rate = uniform(0, 5) == 0
                 ? Rate::bps(static_cast<double>(uniform(1'000'000, 60'000'000)))
                 : any_grid_rate();
    s.actions.push_back(a);
  }
  // Off and on again, once for longer than the use-it-or-lose-it timeout.
  for (int i = 0; i < 3; ++i) {
    const std::int64_t off = uniform(0, kScriptUs - 3'000);
    for (const bool on : {false, true}) {
      Action a;
      a.kind = Action::kActive;
      a.flag = on;
      a.at = Time::us(on ? off + uniform(0, i == 0 ? 3'000 : 300) : off);
      s.actions.push_back(a);
    }
  }
  static constexpr SourceBehavior kBehaviors[] = {
      SourceBehavior::kGreedy, SourceBehavior::kForging,
      SourceBehavior::kPartial, SourceBehavior::kCompliant};
  for (int i = 0; i < 6; ++i) {
    Action a;
    a.kind = Action::kBehavior;
    a.at = grid(0, kScriptUs);
    a.behavior = kBehaviors[uniform(0, 3)];
    a.compliance = static_cast<double>(uniform(0, 10)) / 10.0;
    s.actions.push_back(a);
  }
  for (int i = 0; i < 3; ++i) {
    Action a;
    a.kind = Action::kDemand;
    a.at = grid(0, kScriptUs);
    a.rate = uniform(0, 2) == 0 ? Rate::bps(1e18) : any_grid_rate();
    s.actions.push_back(a);
  }
  for (int i = 0; i < 60; ++i) {
    Action a;
    a.kind = Action::kRead;
    a.at = grid(0, kScriptUs + 2'000);
    s.actions.push_back(a);
  }
  for (int i = 0; i < 5; ++i) s.checkpoints.push_back(grid(0, kScriptUs));
  std::sort(s.checkpoints.begin(), s.checkpoints.end());
  s.end = Time::us(kScriptUs + 3'000);
  std::stable_sort(s.actions.begin(), s.actions.end(), by_time);
  return s;
}

/// Adds reads at `reads_at`, each after the script's events there.
void add_reads(Script& s, const std::vector<Time>& reads_at) {
  for (const Time t : reads_at) {
    Action a;
    a.kind = Action::kRead;
    a.at = t;
    s.actions.push_back(a);
  }
  std::stable_sort(s.actions.begin(), s.actions.end(), by_time);
}

struct Outcome {
  std::vector<Arrival> cells;
  std::vector<Read> reads;
  std::vector<double> acr_series;
  std::string log;
  std::uint64_t events = 0;
  std::vector<Time> sends;  // the reference's send instants
};

template <typename Source>
Outcome run(const Script& s) {
  Simulator sim;
  Collector sink{sim};
  Source src{sim, kVc, s.params, Link{sim, s.delay, sink}};
  obs::EventLog log;
  sim::Trace acr;
  src.set_event_log(&log);
  src.set_acr_trace(&acr);
  Outcome out;
  // Every script event is filed before the run, so its key orders before
  // every key the sources draw at its instant.
  for (const Action& a : s.actions) {
    sim.schedule_at(a.at, [&sim, &src, &out, a] {
      switch (a.kind) {
        case Action::kBrm: {
          Cell c = Cell::forward_rm(kVc, Rate::zero(), a.rate);
          c.kind = CellKind::kBackwardRm;
          c.ci = a.flag;
          src.receive_cell(c);
          break;
        }
        case Action::kActive:
          src.set_active(a.flag);
          break;
        case Action::kBehavior:
          src.set_behavior(a.behavior, a.compliance);
          break;
        case Action::kDemand:
          src.set_demand(a.rate);
          break;
        case Action::kRead:
          out.reads.push_back(read(sim, src, out.reads.size()));
          break;
      }
    });
  }
  src.start(s.start);
  for (const Time t : s.checkpoints) {
    sim.run_until(t);
    out.reads.push_back(read(sim, src, out.reads.size()));
  }
  sim.run_until(s.end);
  out.reads.push_back(read(sim, src, out.reads.size()));
  out.cells = sink.cells;
  for (const sim::Sample& x : acr.samples()) {
    out.acr_series.push_back(x.time.seconds());
    out.acr_series.push_back(x.value);
  }
  out.log = log.to_jsonl();
  out.events = sim.events_executed();
  if constexpr (requires { src.sends; }) out.sends = src.sends;
  return out;
}

TEST(LazySourceDifferentialTest, AgreesWithEventedSourceOnRandomScripts) {
  std::uint64_t cells = 0, frms = 0, forged = 0, on_send = 0, saved = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("script seed " + std::to_string(seed));
    Script script = make_script(seed);
    // Reads at the reference's send instants and at those cells' arrival
    // instants, filed before the run like every script event.
    const std::vector<Time> sends = run<EventedSource>(script).sends;
    ASSERT_GT(sends.size(), 100u);
    std::mt19937_64 rng{seed};
    std::vector<Time> reads_at;
    for (int i = 0; i < 40; ++i) {
      const Time t = sends[std::uniform_int_distribution<std::size_t>{
          0, sends.size() - 1}(rng)];
      reads_at.push_back(t);
      reads_at.push_back(t + script.delay);
    }
    add_reads(script, reads_at);

    const Outcome ref = run<EventedSource>(script);
    const Outcome got = run<AbrSource>(script);
    ASSERT_EQ(ref.cells.size(), got.cells.size());
    for (std::size_t i = 0; i < ref.cells.size(); ++i) {
      ASSERT_TRUE(ref.cells[i] == got.cells[i]) << "cell " << i << " differs";
    }
    ASSERT_EQ(ref.reads.size(), got.reads.size());
    for (std::size_t i = 0; i < ref.reads.size(); ++i) {
      ASSERT_EQ(ref.reads[i], got.reads[i]) << "reads diverge at read " << i;
    }
    EXPECT_EQ(ref.acr_series, got.acr_series);
    EXPECT_EQ(ref.log, got.log);
    // The reference costs two events per send.
    EXPECT_LT(got.events, ref.events);

    cells += got.cells.size();
    saved += ref.events - got.events;
    for (const Arrival& a : got.cells) {
      frms += a.kind == CellKind::kForwardRm ? 1 : 0;
      forged += a.kind == CellKind::kBackwardRm ? 1 : 0;
    }
    for (const Action& a : script.actions) {
      on_send += a.kind != Action::kRead &&
                         std::binary_search(sends.begin(), sends.end(), a.at)
                     ? 1
                     : 0;
    }
  }
  // The scripts reach every path they are meant to compare.
  EXPECT_GT(cells, 30'000u);
  EXPECT_GT(frms, 4'000u);
  EXPECT_GT(forged, 50u);
  EXPECT_GT(on_send, 20u) << "few script events landed on send instants";
  EXPECT_GT(saved, cells);
}

// Rule B at its border: a backward RM cell that arrives at a send
// instant is applied before that send, and a forward RM cell sent there
// carries the new ACR. A read at that instant changes nothing.
TEST(LazySourceBorderTest, BrmAtASendInstantIsAppliedBeforeTheSend) {
  for (const Time delay : {Time::zero(), Time::us(3), Time::ms(2)}) {
    SCOPED_TRACE("access delay " + delay.to_string());
    AbrParams p;
    p.pcr = grid_rate(10);
    p.icr = grid_rate(50);  // a cell every 50 us
    p.nrm = 4;              // sends 0, 4, 8, ... are forward RM cells
    auto run_with = [&](bool read_at_send) {
      Simulator sim;
      Collector sink{sim};
      AbrSource src{sim, kVc, p, Link{sim, delay, sink}};
      // The fifth send, at 200 us, is a forward RM cell.
      const Time send = Time::us(200);
      if (read_at_send) {
        sim.schedule_at(send, [&] {
          EXPECT_EQ(src.rm_cells_sent(), 1u) << "the send at 200 us ran";
          EXPECT_EQ(src.data_cells_sent(), 3u);
        });
      }
      sim.schedule_at(send, [&] {
        Cell brm = Cell::forward_rm(kVc, Rate::zero(), grid_rate(100));
        brm.kind = CellKind::kBackwardRm;
        src.receive_cell(brm);  // ACR 8.48 -> 4.24 Mb/s (ER)
      });
      src.start(Time::zero());
      sim.run_until(Time::ms(3));
      return std::pair{sink.cells, sim.events_executed()};
    };
    const auto [plain, plain_events] = run_with(false);
    const auto [with_read, read_events] = run_with(true);
    ASSERT_GE(plain.size(), 6u);
    const Arrival& frm = plain[4];
    EXPECT_EQ(frm.kind, CellKind::kForwardRm);
    EXPECT_EQ(frm.sent, Time::us(200));
    EXPECT_DOUBLE_EQ(frm.ccr, grid_rate(100).bits_per_sec());
    // The next send is paced off the new rate.
    EXPECT_EQ(plain[5].sent, Time::us(300));
    EXPECT_TRUE(plain == with_read);
    EXPECT_EQ(read_events, plain_events + 1);  // the read's own event
  }
}

// Outside a run, the sends up to now() count once nothing at now() is
// pending; after a run stopped inside an instant, a send at it has not
// run yet.
TEST(LazySourceBorderTest, ReadOutsideARunSeesSendsUpToNow) {
  Simulator sim;
  Collector sink{sim};
  AbrParams p;
  p.pcr = grid_rate(10);
  p.icr = grid_rate(50);
  AbrSource src{sim, kVc, p, Link{sim, Time::ms(1), sink}};
  src.start(Time::zero());
  sim.run_until(Time::us(100));  // sends at 0, 50 and 100 us
  EXPECT_EQ(src.rm_cells_sent() + src.data_cells_sent(), 3u);
  sim.schedule_at(Time::us(150), [&] { sim.stop(); });
  sim.schedule_at(Time::us(150), [] {});
  sim.run();
  EXPECT_EQ(sim.now(), Time::us(150));
  EXPECT_EQ(src.rm_cells_sent() + src.data_cells_sent(), 3u)
      << "an event at 150 us is still pending";
  sim.run_until(Time::us(150));
  EXPECT_EQ(src.rm_cells_sent() + src.data_cells_sent(), 4u);
  EXPECT_EQ(src.link().state()->in_flight(), 4u);
}

// Each reader runs the due sends itself. Here four sends are due when
// it is called, the last a forward RM cell that halves ACR (Crm = 1).
TEST(LazySourceBorderTest, EveryReaderRunsTheDueSends) {
  using Reader = std::function<double(const AbrSource&)>;
  const std::vector<std::pair<std::string, Reader>> readers = {
      {"acr", [](const AbrSource& s) { return s.acr().bits_per_sec(); }},
      {"effective_rate",
       [](const AbrSource& s) { return s.effective_rate().bits_per_sec(); }},
      {"stale_rate_envelope",
       [](const AbrSource& s) {
         return s.stale_rate_envelope().bits_per_sec();
       }},
      {"data_cells_sent",
       [](const AbrSource& s) { return double(s.data_cells_sent()); }},
      {"rm_cells_sent",
       [](const AbrSource& s) { return double(s.rm_cells_sent()); }},
      {"frms_since_brm",
       [](const AbrSource& s) { return double(s.frms_since_brm()); }},
      {"link offered",
       [](const AbrSource& s) { return double(s.link().state()->offered()); }},
      {"link in_flight",
       [](const AbrSource& s) {
         return double(s.link().state()->in_flight());
       }},
  };
  AbrParams p;
  p.pcr = grid_rate(10);
  p.icr = grid_rate(50);
  p.air_nrm = Rate::mbps(40);
  p.nrm = 2;
  p.crm = 1;
  for (const auto& [name, reader] : readers) {
    SCOPED_TRACE(name);
    Simulator sim;
    Collector sink{sim};
    AbrSource src{sim, kVc, p, Link{sim, Time::ms(1), sink}};
    // At 10 us ACR goes to PCR; the sends at 50, 60, 70 and 80 us are due
    // at 85 us, and the forward RM cell at 80 us cuts ACR to 21.2 Mb/s.
    sim.schedule_at(Time::us(10), [&] {
      Cell brm = Cell::forward_rm(kVc, Rate::zero(), p.pcr);
      brm.kind = CellKind::kBackwardRm;
      src.receive_cell(brm);
    });
    src.start(Time::zero());
    sim.run_until(Time::us(85));
    const double first = reader(src);
    src.catch_up();
    EXPECT_EQ(first, reader(src));
    EXPECT_EQ(src.rm_cells_sent() + src.data_cells_sent(), 5u);
    EXPECT_DOUBLE_EQ(src.acr().mbits_per_sec(), 21.2);
  }
}

// The access link carries no fault model: a fault drawn or judged at a
// send would move with every read that runs it.
TEST(LazySourceBorderTest, RefusesAFaultModelOnTheAccessLink) {
  Simulator sim;
  Collector sink{sim};
  AbrSource src{sim, kVc, AbrParams{}, Link{sim, Time::us(2), sink, 0.1}};
  src.start(Time::zero());
  EXPECT_THROW(sim.run_until(Time::ms(1)), std::logic_error);
}

}  // namespace
}  // namespace phantom::atm
