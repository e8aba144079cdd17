// Departure-time output ports against the event-driven port they
// replaced. The reference below is that port's logic: two FIFOs, a
// completion event per cell that frees its buffer, tells the
// controller and hands the cell to the link, which judges it at once
// and files its own arrival event. One random script drives both
// models, and every observable must agree: each cell's fate and
// arrival instant, each queue length the controller is handed, each
// buffer-manager verdict, and the port, link and buffer counters and
// the conservation ledger at random instants.
//
// Script instants never coincide with a departure: every arrival,
// fault edge and observation gets its own residue modulo the cell
// time, and link delays are whole cell times, so the two models never
// have to break a tie the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "atm/buffer_manager.h"
#include "atm/link.h"
#include "atm/output_port.h"
#include "sim/simulator.h"

namespace phantom::atm {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

constexpr int kPorts = 3;
const Rate kRate = Rate::mbps(150);

/// Every script cell carries its index in sent_at, so each hook can
/// name the cell it saw.
std::int64_t id_of(const Cell& c) { return c.sent_at.nanoseconds(); }

/// What one port's controller was told, in order.
struct Hooks {
  std::vector<std::pair<std::int64_t, std::size_t>> accepted;  // id, queue
  std::vector<std::size_t> efci_queries;
  std::vector<std::int64_t> dropped;
  std::vector<std::int64_t> transmitted;
};

class SpyController final : public PortController {
 public:
  explicit SpyController(Hooks& hooks) : hooks_{&hooks} {}
  void on_cell_accepted(const Cell& c, std::size_t q) override {
    hooks_->accepted.emplace_back(id_of(c), q);
  }
  void on_cell_dropped(const Cell& c) override {
    hooks_->dropped.push_back(id_of(c));
  }
  void on_cell_transmitted(const Cell& c) override {
    hooks_->transmitted.push_back(id_of(c));
  }
  void on_backward_rm(Cell&, std::size_t) override {}
  [[nodiscard]] bool mark_efci(std::size_t q) const override {
    hooks_->efci_queries.push_back(q);
    return q >= 6;
  }
  [[nodiscard]] Rate fair_share() const override { return Rate::zero(); }
  [[nodiscard]] std::string name() const override { return "spy"; }

 private:
  Hooks* hooks_;
};

struct Arrival {
  std::int64_t id;
  Time at;
  double er;
  bool ci;
  bool efci;
  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// The far end of one port's link. Also checks that the controller
/// heard of each cell's departure before the cell arrived.
class Sink final : public CellSink {
 public:
  Sink(Simulator& sim, const Hooks& hooks) : sim_{&sim}, hooks_{&hooks} {}
  void receive_cell(Cell c) override {
    const auto& tx = hooks_->transmitted;
    if (std::find(tx.begin(), tx.end(), id_of(c)) == tx.end()) {
      ++arrived_untransmitted;
    }
    arrivals.push_back(Arrival{id_of(c), sim_->now(), c.er.bits_per_sec(),
                               c.ci, c.efci});
  }
  std::vector<Arrival> arrivals;
  int arrived_untransmitted = 0;

 private:
  Simulator* sim_;
  const Hooks* hooks_;
};

// ----------------------------------------------------- reference model

/// The replaced link: judges a cell when the port hands it over and
/// files one arrival event per surviving cell.
struct RefLink {
  Simulator* sim;
  Time delay;
  CellSink* sink;
  bool down = false;
  double loss = 0.0;
  double rm_loss = 0.0;
  double rm_corrupt = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost_outage = 0;
  std::uint64_t lost_random = 0;
  std::uint64_t lost_rm = 0;
  std::uint64_t corrupted_rm = 0;

  [[nodiscard]] std::uint64_t lost() const {
    return lost_outage + lost_random + lost_rm;
  }

  void deliver(Cell cell) {
    ++offered;
    if (down) {
      ++lost_outage;
      return;
    }
    if (loss > 0.0 && sim->rng().bernoulli(loss)) {
      ++lost_random;
      return;
    }
    if (cell.is_rm()) {
      if (rm_loss > 0.0 && sim->rng().bernoulli(rm_loss)) {
        ++lost_rm;
        return;
      }
      if (rm_corrupt > 0.0 && sim->rng().bernoulli(rm_corrupt)) {
        ++corrupted_rm;
        cell.er = Rate::bps(
            sim->rng().uniform(0.0, 2.0 * cell.er.bits_per_sec() + 1.0));
        if (sim->rng().bernoulli(0.5)) cell.ci = !cell.ci;
      }
    }
    sim->schedule(delay, [this, cell] {
      ++delivered;
      sink->receive_cell(cell);
    });
  }
};

/// The replaced port: a best-effort and a priority FIFO, the cell on
/// the wire pinned at the start of its service, one completion event
/// per cell.
class RefPort {
 public:
  RefPort(Simulator& sim, std::size_t limit, RefLink& link,
          PortController& ctl, QueueDiscipline discipline)
      : sim_{&sim},
        cell_time_{kRate.transmission_time(kCellBits)},
        limit_{limit},
        link_{&link},
        ctl_{&ctl},
        discipline_{discipline} {}

  void attach(BufferManager* bm, int id) {
    bm_ = bm;
    bm_id_ = id;
  }
  void set_clp_threshold(std::size_t t) { clp_threshold_ = t; }

  void send(Cell cell) {
    const bool clp_overflow = cell.clp && queue_length() >= clp_threshold_;
    if (queue_length() >= limit_ || clp_overflow) {
      ++dropped;
      if (clp_overflow && queue_length() < limit_) ++clp_dropped;
      ctl_->on_cell_dropped(cell);
      return;
    }
    if (bm_ != nullptr &&
        bm_->admit(bm_id_, cell, sim_->now()) !=
            BufferManager::Verdict::kAccept) {
      ++dropped;
      ctl_->on_cell_dropped(cell);
      return;
    }
    if (cell.kind == CellKind::kData && ctl_->mark_efci(queue_length())) {
      cell.efci = true;
    }
    if (discipline_ == QueueDiscipline::kStrictPriority &&
        cell.high_priority) {
      priority_.push_back(cell);
    } else {
      queue_.push_back(cell);
    }
    max_queue = std::max(max_queue, queue_length());
    ++accepted;
    ctl_->on_cell_accepted(cell, queue_length());
    if (!transmitting_) start();
  }

  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() + priority_.size();
  }

  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t clp_dropped = 0;
  std::uint64_t transmitted = 0;
  std::size_t max_queue = 0;

 private:
  void start() {
    transmitting_ = true;
    serving_ = priority_.empty() ? &queue_ : &priority_;
    sim_->schedule(cell_time_, [this] { complete(); });
  }

  void complete() {
    std::deque<Cell>& q = *serving_;
    const Cell cell = q.front();
    q.pop_front();
    if (bm_ != nullptr) bm_->release(bm_id_, cell);
    ++transmitted;
    ctl_->on_cell_transmitted(cell);
    link_->deliver(cell);
    if (queue_length() > 0) {
      start();
    } else {
      transmitting_ = false;
    }
  }

  Simulator* sim_;
  Time cell_time_;
  std::size_t limit_;
  RefLink* link_;
  PortController* ctl_;
  QueueDiscipline discipline_;
  std::deque<Cell> queue_;
  std::deque<Cell> priority_;
  std::deque<Cell>* serving_ = nullptr;
  bool transmitting_ = false;
  BufferManager* bm_ = nullptr;
  int bm_id_ = -1;
  std::size_t clp_threshold_ = SIZE_MAX;
};

// ------------------------------------------------------------- script

struct PortSetup {
  std::size_t limit;
  QueueDiscipline discipline;
  std::size_t clp_threshold;
};

/// Port 0: strict priority, carries the guaranteed-class VC and the
/// faulted link. Port 1: FIFO with a CLP threshold. Port 2: FIFO.
/// All three share one small buffer budget.
const PortSetup kSetup[kPorts] = {
    {12, QueueDiscipline::kStrictPriority, SIZE_MAX},
    {10, QueueDiscipline::kFifo, 4},
    {16, QueueDiscipline::kFifo, SIZE_MAX},
};

BufferConfig buffer_config() {
  BufferConfig cfg;
  cfg.budget_cells = 30;
  cfg.alpha = 2.0;
  cfg.epd_fraction = 0.5;
  cfg.shed_fraction = 0.8;
  return cfg;
}

constexpr int kMcrVc = 4;

struct Action {
  enum Kind { kCell, kFault, kSqueeze, kObserve };
  Time at;
  Kind kind = kCell;
  int port = 0;
  Cell cell;
  int fault = 0;  // 0 outage, 1 random loss, 2 RM loss and corruption
  bool on = false;
};

struct Script {
  std::int64_t delay_cells[kPorts] = {};
  std::vector<Action> actions;
};

Script make_script(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  const std::int64_t t_ns = kRate.transmission_time(kCellBits).nanoseconds();
  std::vector<std::int64_t> residues(static_cast<std::size_t>(t_ns));
  std::iota(residues.begin(), residues.end(), 0);
  std::shuffle(residues.begin(), residues.end(), rng);
  std::size_t next_residue = 0;
  constexpr std::int64_t kSlots = 300;
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
  };
  auto instant = [&](std::int64_t slot) {
    return Time::ns(slot * t_ns + residues.at(next_residue++));
  };

  Script s;
  for (int p = 0; p < kPorts; ++p) s.delay_cells[p] = uniform(0, 40);

  // Cells: a calm background plus a hot window that overloads the
  // ports and the shared budget. VC v goes out of port v % 3; VC 0 is
  // the guaranteed-class stream, the others send frames of 1-4 cells
  // with an RM cell now and then and a CLP tag on some data cells.
  constexpr int kVcs = 9;
  std::uint32_t frame[kVcs] = {};
  std::uint16_t left[kVcs] = {};
  std::uint16_t len[kVcs] = {};
  const std::int64_t hot = uniform(40, 200);
  for (int i = 0; i < 600; ++i) {
    const std::int64_t slot =
        uniform(0, 1) == 0 ? uniform(0, kSlots) : uniform(hot, hot + 40);
    const int vc = static_cast<int>(uniform(0, kVcs - 1));
    Action a;
    a.at = instant(slot);
    a.port = vc % kPorts;
    Cell& c = a.cell;
    if (vc == 0) {
      c = Cell::data(vc);
      c.high_priority = true;
    } else if (uniform(0, 7) == 0) {
      c = uniform(0, 1) == 0
              ? Cell::forward_rm(vc, Rate::mbps(10), Rate::mbps(100))
              : Cell::forward_rm(vc, Rate::mbps(20), Rate::mbps(60));
      if (uniform(0, 1) == 0) c.kind = CellKind::kBackwardRm;
    } else {
      c = Cell::data(vc);
      if (left[vc] == 0) {
        len[vc] = static_cast<std::uint16_t>(uniform(1, 4));
        left[vc] = len[vc];
        ++frame[vc];
      }
      c.frame = frame[vc];
      c.frame_len = len[vc];
      c.eof = --left[vc] == 0;
      c.clp = uniform(0, 4) == 0;
    }
    s.actions.push_back(a);
  }
  // Fault windows on port 0's link, and one buffer squeeze.
  for (int f = 0; f < 3; ++f) {
    const std::int64_t from = uniform(0, kSlots);
    const std::int64_t to = from + uniform(5, 60);
    Action a;
    a.kind = Action::kFault;
    a.fault = f;
    a.on = true;
    a.at = instant(from);
    s.actions.push_back(a);
    a.on = false;
    a.at = instant(to);
    s.actions.push_back(a);
  }
  {
    const std::int64_t from = uniform(hot, hot + 40);
    Action a;
    a.kind = Action::kSqueeze;
    a.on = true;
    a.at = instant(from);
    s.actions.push_back(a);
    a.on = false;
    a.at = instant(from + uniform(5, 40));
    s.actions.push_back(a);
  }
  for (int i = 0; i < 60; ++i) {
    Action a;
    a.kind = Action::kObserve;
    a.at = instant(uniform(0, kSlots + 60));
    s.actions.push_back(a);
  }
  std::sort(s.actions.begin(), s.actions.end(),
            [](const Action& a, const Action& b) { return a.at < b.at; });
  for (std::size_t i = 0; i < s.actions.size(); ++i) {
    s.actions[i].cell.sent_at = Time::ns(static_cast<std::int64_t>(i));
  }
  return s;
}

// ------------------------------------------------------ observations

/// Counters of one port, its link and its share of the buffer.
struct PortView {
  std::size_t queue = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t clp_dropped = 0;
  std::uint64_t transmitted = 0;
  std::size_t max_queue = 0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  /// Cells departed and not delivered: judged lost or still in flight.
  /// The two models judge at different times; the sum agrees.
  std::uint64_t lost_or_in_flight = 0;
  std::size_t buffered = 0;
  friend bool operator==(const PortView&, const PortView&) = default;
};

struct View {
  PortView port[kPorts];
  std::size_t in_use = 0;
  std::size_t peak = 0;
  std::size_t grace = 0;
  bool within_budget = false;
  DegradationLevel level = DegradationLevel::kNormal;
  std::uint64_t bm_accepted = 0;
  std::uint64_t epd_frames = 0;
  std::uint64_t ppd_cells = 0;
  std::uint64_t shed_cells = 0;
  std::uint64_t overflow_cells = 0;
  std::uint64_t protected_cells = 0;
  friend bool operator==(const View&, const View&) = default;
};

void fill_buffer_view(View& v, const BufferManager& bm) {
  v.in_use = bm.cells_in_use();
  v.peak = bm.peak_cells_in_use();
  v.grace = bm.grace_cells();
  v.within_budget = bm.within_budget();
  v.level = bm.level();
  v.bm_accepted = bm.cells_accepted();
  v.epd_frames = bm.frames_epd_discarded();
  v.ppd_cells = bm.cells_ppd_discarded();
  v.shed_cells = bm.cells_shed();
  v.overflow_cells = bm.cells_overflow_dropped();
  v.protected_cells = bm.mcr_protected_cells();
}

/// Everything a run of one model produced.
struct Outcome {
  std::vector<View> after_cell;  // after each script cell
  std::vector<View> observed;    // at each observation instant
  Hooks hooks[kPorts];
  std::vector<Arrival> arrivals[kPorts];
  int arrived_untransmitted = 0;
  std::uint64_t lost_outage = 0;
  std::uint64_t lost_random = 0;
  std::uint64_t lost_rm = 0;
  std::uint64_t corrupted_rm = 0;
  std::uint64_t ledger_breaks = 0;  // observations where a ledger failed
};

constexpr std::uint64_t kSimSeed = 11;

void set_fault(bool& down, double& loss, double& rm_loss, double& rm_corrupt,
               const Action& a) {
  switch (a.fault) {
    case 0:
      down = a.on;
      break;
    case 1:
      loss = a.on ? 0.3 : 0.0;
      break;
    default:
      rm_loss = a.on ? 0.2 : 0.0;
      rm_corrupt = a.on ? 0.5 : 0.0;
      break;
  }
}

Outcome run_reference(const Script& s) {
  Outcome out;
  Simulator sim{kSimSeed};
  BufferManager bm{buffer_config()};
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<std::unique_ptr<SpyController>> ctls;
  std::vector<std::unique_ptr<RefLink>> links;
  std::vector<std::unique_ptr<RefPort>> ports;
  const Time cell = kRate.transmission_time(kCellBits);
  for (int p = 0; p < kPorts; ++p) {
    sinks.push_back(std::make_unique<Sink>(sim, out.hooks[p]));
    ctls.push_back(std::make_unique<SpyController>(out.hooks[p]));
    links.push_back(std::make_unique<RefLink>(
        RefLink{&sim, cell * s.delay_cells[p], sinks[p].get()}));
    ports.push_back(std::make_unique<RefPort>(sim, kSetup[p].limit, *links[p],
                                              *ctls[p], kSetup[p].discipline));
    ports[p]->set_clp_threshold(kSetup[p].clp_threshold);
    ports[p]->attach(&bm, bm.register_port());
  }
  bm.set_vc_mcr(kMcrVc, Rate::mbps(5), Time::zero());

  auto view = [&] {
    View v;
    for (int p = 0; p < kPorts; ++p) {
      const RefPort& port = *ports[p];
      const RefLink& link = *links[p];
      PortView& pv = v.port[p];
      pv.queue = port.queue_length();
      pv.accepted = port.accepted;
      pv.dropped = port.dropped;
      pv.clp_dropped = port.clp_dropped;
      pv.transmitted = port.transmitted;
      pv.max_queue = port.max_queue;
      pv.offered = link.offered;
      pv.delivered = link.delivered;
      pv.lost_or_in_flight = link.offered - link.delivered;
      pv.buffered = bm.cells_in_use(p);
    }
    fill_buffer_view(v, bm);
    return v;
  };
  for (const Action& a : s.actions) {
    sim.schedule_at(a.at, [&, a] {
      switch (a.kind) {
        case Action::kCell:
          ports[a.port]->send(a.cell);
          out.after_cell.push_back(view());
          break;
        case Action::kFault: {
          RefLink& l = *links[0];
          set_fault(l.down, l.loss, l.rm_loss, l.rm_corrupt, a);
          break;
        }
        case Action::kSqueeze:
          bm.squeeze(a.on ? 0.5 : 1.0);
          break;
        case Action::kObserve: {
          const View v = view();
          for (int p = 0; p < kPorts; ++p) {
            const PortView& pv = v.port[p];
            if (pv.accepted != pv.queue + pv.transmitted ||
                pv.transmitted != pv.offered) {
              ++out.ledger_breaks;
            }
          }
          out.observed.push_back(v);
          break;
        }
      }
    });
  }
  sim.run();
  for (int p = 0; p < kPorts; ++p) out.arrivals[p] = sinks[p]->arrivals;
  for (const auto& sink : sinks) {
    out.arrived_untransmitted += sink->arrived_untransmitted;
  }
  out.lost_outage = links[0]->lost_outage;
  out.lost_random = links[0]->lost_random;
  out.lost_rm = links[0]->lost_rm;
  out.corrupted_rm = links[0]->corrupted_rm;
  return out;
}

Outcome run_departure_ports(const Script& s) {
  Outcome out;
  Simulator sim{kSimSeed};
  BufferManager bm{buffer_config()};
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<std::unique_ptr<OutputPort>> ports;
  const Time cell = kRate.transmission_time(kCellBits);
  for (int p = 0; p < kPorts; ++p) {
    sinks.push_back(std::make_unique<Sink>(sim, out.hooks[p]));
    ports.push_back(std::make_unique<OutputPort>(
        sim, kRate, kSetup[p].limit,
        Link{sim, cell * s.delay_cells[p], *sinks[p]},
        std::make_unique<SpyController>(out.hooks[p]), kSetup[p].discipline));
    ports[p]->set_clp_threshold(kSetup[p].clp_threshold);
    ports[p]->attach_buffer_manager(&bm, bm.register_port(ports[p].get()));
  }
  bm.set_vc_mcr(kMcrVc, Rate::mbps(5), Time::zero());

  auto view = [&] {
    View v;
    for (int p = 0; p < kPorts; ++p) {
      const OutputPort& port = *ports[p];
      const LinkState& link = *port.link().state();
      PortView& pv = v.port[p];
      pv.queue = port.queue_length();
      pv.accepted = port.cells_accepted();
      pv.dropped = port.cells_dropped();
      pv.clp_dropped = port.clp_cells_dropped();
      pv.transmitted = port.cells_transmitted();
      pv.max_queue = port.max_queue_length();
      pv.offered = link.offered();
      pv.delivered = link.counters().delivered;
      pv.lost_or_in_flight = link.lost() + link.in_flight();
      pv.buffered = bm.cells_in_use(p);
    }
    fill_buffer_view(v, bm);
    return v;
  };
  for (const Action& a : s.actions) {
    sim.schedule_at(a.at, [&, a] {
      switch (a.kind) {
        case Action::kCell:
          ports[a.port]->send(a.cell);
          out.after_cell.push_back(view());
          break;
        case Action::kFault: {
          LinkState& l = *ports[0]->link().state();
          l.settle();  // the contract every fault model change keeps
          set_fault(l.down, l.loss, l.rm_loss, l.rm_corrupt, a);
          break;
        }
        case Action::kSqueeze:
          bm.squeeze(a.on ? 0.5 : 1.0);
          break;
        case Action::kObserve: {
          const View v = view();
          for (int p = 0; p < kPorts; ++p) {
            const PortView& pv = v.port[p];
            const LinkState& link = *ports[p]->link().state();
            if (pv.accepted != pv.queue + pv.transmitted ||
                pv.transmitted != pv.offered ||
                link.in_flight() !=
                    link.line.size() - link.line.waiting()) {
              ++out.ledger_breaks;
            }
          }
          out.observed.push_back(v);
          break;
        }
      }
    });
  }
  sim.run();
  for (int p = 0; p < kPorts; ++p) out.arrivals[p] = sinks[p]->arrivals;
  for (const auto& sink : sinks) {
    out.arrived_untransmitted += sink->arrived_untransmitted;
  }
  const LinkState& faulted = *ports[0]->link().state();
  out.lost_outage = faulted.counters().lost_outage;
  out.lost_random = faulted.counters().lost_random;
  out.lost_rm = faulted.counters().lost_rm;
  out.corrupted_rm = faulted.counters().corrupted_rm;
  return out;
}

TEST(DeparturePortDifferentialTest, AgreesWithEventDrivenPortOnRandomScripts) {
  std::uint64_t drops = 0, lost = 0, corrupted = 0, overtakes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("script seed " + std::to_string(seed));
    const Script script = make_script(seed);
    const Outcome ref = run_reference(script);
    const Outcome dep = run_departure_ports(script);

    ASSERT_EQ(ref.after_cell.size(), dep.after_cell.size());
    for (std::size_t i = 0; i < ref.after_cell.size(); ++i) {
      ASSERT_TRUE(ref.after_cell[i] == dep.after_cell[i])
          << "counters or buffer verdicts diverge after script cell " << i;
    }
    ASSERT_EQ(ref.observed.size(), dep.observed.size());
    for (std::size_t i = 0; i < ref.observed.size(); ++i) {
      ASSERT_TRUE(ref.observed[i] == dep.observed[i])
          << "counters diverge at observation " << i;
    }
    EXPECT_EQ(ref.ledger_breaks, 0u);
    EXPECT_EQ(dep.ledger_breaks, 0u);
    for (int p = 0; p < kPorts; ++p) {
      SCOPED_TRACE("port " + std::to_string(p));
      EXPECT_EQ(ref.hooks[p].accepted, dep.hooks[p].accepted);
      EXPECT_EQ(ref.hooks[p].efci_queries, dep.hooks[p].efci_queries);
      EXPECT_EQ(ref.hooks[p].dropped, dep.hooks[p].dropped);
      EXPECT_EQ(ref.hooks[p].transmitted, dep.hooks[p].transmitted)
          << "departure order";
      EXPECT_TRUE(ref.arrivals[p] == dep.arrivals[p])
          << "fates or arrival instants";
      drops += ref.hooks[p].dropped.size();
    }
    EXPECT_EQ(dep.arrived_untransmitted, 0)
        << "a cell arrived before its controller heard it depart";
    EXPECT_EQ(ref.lost_outage, dep.lost_outage);
    EXPECT_EQ(ref.lost_random, dep.lost_random);
    EXPECT_EQ(ref.lost_rm, dep.lost_rm);
    EXPECT_EQ(ref.corrupted_rm, dep.corrupted_rm);
    lost += ref.lost_outage + ref.lost_random + ref.lost_rm;
    corrupted += ref.corrupted_rm;
    // Guaranteed-class cells that left port 0 ahead of an earlier
    // best-effort cell.
    const auto& tx = ref.hooks[0].transmitted;
    for (std::size_t i = 1; i < tx.size(); ++i) overtakes += tx[i] < tx[i - 1];
  }
  // The scripts reach every path they are meant to compare.
  EXPECT_GT(drops, 1000u);
  EXPECT_GT(lost, 100u);
  EXPECT_GT(corrupted, 10u);
  EXPECT_GT(overtakes, 50u);
}

// ------------------------------------------------------- tie borders

// The tie rule at an exact border, one nanosecond wide (in the manner
// of a RED test whose thresholds sit one byte apart): a cell whose
// departure equals now() has left the port. At d - 1 ns every count
// still holds it; at d none does.
TEST(DeparturePortBorderTest, CellLeavesExactlyAtItsDeparture) {
  Simulator sim;
  struct Null final : CellSink {
    void receive_cell(Cell) override {}
  } sink;
  BufferManager bm;
  OutputPort port{sim, kRate, 10, Link{sim, Time::us(5), sink}, nullptr};
  port.attach_buffer_manager(&bm, bm.register_port(&port));
  const LinkState& link = *port.link().state();
  const Time cell = kRate.transmission_time(kCellBits);
  const Time ns = Time::ns(1);

  port.send(Cell::data(1));
  port.send(Cell::data(1));
  struct Count {
    std::size_t queue;
    std::uint64_t transmitted;
    std::uint64_t offered;
    std::uint64_t in_flight;
    std::size_t buffered;
  };
  auto count = [&] {
    return Count{port.queue_length(), port.cells_transmitted(),
                 link.offered(), link.in_flight(), bm.cells_in_use()};
  };
  for (int k = 1; k <= 2; ++k) {
    SCOPED_TRACE("departure " + std::to_string(k));
    const auto left = static_cast<std::uint64_t>(k - 1);
    sim.run_until(cell * k - ns);
    Count c = count();
    EXPECT_EQ(c.queue, 3 - static_cast<std::size_t>(k));
    EXPECT_EQ(c.transmitted, left);
    EXPECT_EQ(c.offered, left);
    EXPECT_EQ(c.in_flight, left);
    EXPECT_EQ(c.buffered, 3 - static_cast<std::size_t>(k));
    sim.run_until(cell * k);
    c = count();
    EXPECT_EQ(c.queue, 2 - static_cast<std::size_t>(k));
    EXPECT_EQ(c.transmitted, left + 1);
    EXPECT_EQ(c.offered, left + 1);
    EXPECT_EQ(c.in_flight, left + 1);
    EXPECT_EQ(c.buffered, 2 - static_cast<std::size_t>(k));
  }
}

// The same border decides which cell a guaranteed-class cell overtakes
// on a strict-priority port: the cell in service — whose service began
// at or before now — keeps its place. One nanosecond before the first
// departure, the second best-effort cell has not started and is
// overtaken; at the departure it has started and is not.
TEST(DeparturePortBorderTest, PriorityCellWaitsForTheCellInService) {
  for (const bool at_border : {false, true}) {
    SCOPED_TRACE(at_border ? "at the departure" : "1 ns before it");
    Simulator sim;
    struct Order final : CellSink {
      void receive_cell(Cell c) override { vcs.push_back(c.vc); }
      std::vector<int> vcs;
    } sink;
    OutputPort port{sim, kRate, 10, Link{sim, Time::zero(), sink}, nullptr,
                    QueueDiscipline::kStrictPriority};
    const Time cell = kRate.transmission_time(kCellBits);
    for (int vc = 1; vc <= 3; ++vc) port.send(Cell::data(vc));
    sim.run_until(at_border ? cell : cell - Time::ns(1));
    Cell cbr = Cell::data(9);
    cbr.high_priority = true;
    port.send(cbr);
    sim.run();
    const std::vector<int> want = at_border ? std::vector<int>{1, 2, 9, 3}
                                            : std::vector<int>{1, 9, 2, 3};
    EXPECT_EQ(sink.vcs, want);
  }
}

}  // namespace
}  // namespace phantom::atm
