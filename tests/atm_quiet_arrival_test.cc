// Quiet arrivals against the evented line they replace. A link into a
// registered AbrDestination hands its data cells over without a kernel
// event (sim::DelayLine's quiet items). The reference below is the line
// as it was before: every cell files its own arrival event, which
// settles the line and then hands the cell to a destination that is not
// registered. One random script drives both models:
//  * data, forward RM and CBR cells through a FIFO port into the
//    destination;
//  * outage, flap, burst, random-loss and RM-fault windows on that link,
//    each edge less than a cell time before some forward RM cell
//    departs, applied the way FaultInjector applies them (settle, then
//    change the model);
//  * a delay histogram attached mid-run;
//  * draws from the simulator's RNG at random instants, standing in for
//    the other links and sources that share it: the link's own draws
//    must interleave with them as before;
//  * reads at random instants, at cells' arrival instants from callbacks
//    whose keys order before and after the cell's arrival key, and
//    outside the run between run_until() calls.
// Every read must agree (each destination counter; the link's
// delivered, lost and in-flight counts), and so must every RNG draw,
// every backward RM cell's fields and key, and the histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "atm/abr_destination.h"
#include "atm/link.h"
#include "atm/output_port.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace phantom::atm {
namespace {

using sim::Rate;
using sim::Reservation;
using sim::Simulator;
using sim::Time;

const Rate kRate = Rate::mbps(150);
const Time kCellTime = kRate.transmission_time(kCellBits);
const Time kReverseDelay = Time::us(3);
constexpr int kVcs = 5;  // VCs 0-3 ABR, VC 4 CBR
constexpr std::uint64_t kSimSeed = 7;

// ----------------------------------------------------- reference model

/// The line before quiet arrivals, fixed service time only: the head's
/// key is filed, and each arrival event settles the line, files the
/// next head and hands its cell on.
template <typename T, typename Owner>
class EventedLine {
 public:
  EventedLine(Simulator& sim, Time delay, Owner& owner)
      : sim_{&sim}, delay_{delay}, owner_{&owner} {}

  void set_service(Time service) { service_ = service; }

  void send(T item) {
    const Time now = sim_->now();
    const Time depart = std::max(now, last_departure_) + service_;
    last_departure_ = depart;
    ++sent_;
    if (depart == now) {
      if (!owner_->depart(item)) return;
    } else {
      ++unsettled_;
    }
    items_.push_back(Transit{sim_->reserve(depart - now + delay_), item});
    if (items_.size() == 1) file_head();
  }

  void settle() {
    const Time now = sim_->now();
    while (unsettled_ > 0) {
      Transit& t = items_[items_.size() - unsettled_];
      if (t.key.at - delay_ > now) break;
      --unsettled_;
      if (!owner_->depart(t.item)) t.key.seq = 0;
    }
  }

  [[nodiscard]] std::uint64_t departed() const {
    const Time now = sim_->now();
    if (last_departure_ <= now) return sent_;
    const std::int64_t s = service_.nanoseconds();
    return sent_ - static_cast<std::uint64_t>(
                       ((last_departure_ - now).nanoseconds() + s - 1) / s);
  }

 private:
  struct Transit {
    Reservation key;  // seq 0: dropped
    T item;
  };

  void file_head() {
    sim_->schedule(items_.front().key, [this] { arrive(); });
  }

  void arrive() {
    settle();
    const Transit head = items_.front();
    items_.pop_front();
    while (!items_.empty() && items_.front().key.seq == 0) items_.pop_front();
    if (!items_.empty()) file_head();
    if (head.key.seq != 0) owner_->arrive(head.item);
  }

  Simulator* sim_;
  Time delay_;
  Owner* owner_;
  Time service_ = Time::zero();
  Time last_departure_ = Time::zero();
  std::uint64_t sent_ = 0;
  std::size_t unsettled_ = 0;
  std::deque<Transit> items_;
};

/// LinkState's fault model and counters over the evented line.
struct RefLink {
  RefLink(Simulator& s, Time delay, CellSink& receiver)
      : line{s, delay, *this}, sink{&receiver}, sim{&s} {}

  bool down = false;
  double loss = 0.0;
  bool burst_enabled = false;
  bool burst_bad = false;
  double burst_p_good_bad = 0.0;
  double burst_p_bad_good = 0.0;
  double burst_loss_good = 0.0;
  double burst_loss_bad = 0.0;
  double rm_loss = 0.0;
  double rm_corrupt = 0.0;

  std::uint64_t delivered = 0;
  std::uint64_t lost_random = 0;
  std::uint64_t lost_outage = 0;
  std::uint64_t lost_burst = 0;
  std::uint64_t lost_rm = 0;
  std::uint64_t corrupted_rm = 0;

  bool depart(Cell& cell) {
    if (down) {
      ++lost_outage;
      return false;
    }
    if (burst_enabled) {
      const double p_flip = burst_bad ? burst_p_bad_good : burst_p_good_bad;
      if (p_flip > 0.0 && sim->rng().bernoulli(p_flip)) burst_bad = !burst_bad;
      const double p_loss = burst_bad ? burst_loss_bad : burst_loss_good;
      if (p_loss > 0.0 && sim->rng().bernoulli(p_loss)) {
        ++lost_burst;
        return false;
      }
    }
    if (loss > 0.0 && sim->rng().bernoulli(loss)) {
      ++lost_random;
      return false;
    }
    if (cell.is_rm()) {
      if (rm_loss > 0.0 && sim->rng().bernoulli(rm_loss)) {
        ++lost_rm;
        return false;
      }
      if (rm_corrupt > 0.0 && sim->rng().bernoulli(rm_corrupt)) {
        ++corrupted_rm;
        cell.er = Rate::bps(
            sim->rng().uniform(0.0, 2.0 * cell.er.bits_per_sec() + 1.0));
        if (sim->rng().bernoulli(0.5)) cell.ci = !cell.ci;
      }
    }
    return true;
  }

  void arrive(const Cell& cell) {
    ++delivered;
    sink->receive_cell(cell);
  }

  EventedLine<Cell, RefLink> line;
  CellSink* sink;
  Simulator* sim;
};

// ------------------------------------------------------ observations

/// Everything a read sees.
struct Read {
  std::vector<std::uint64_t> data_cells;
  std::vector<std::uint64_t> frames_good;
  std::vector<std::uint64_t> frames_corrupted;
  std::vector<double> mean_delay_ms;
  std::uint64_t total_data = 0;
  std::uint64_t rm_turned = 0;
  std::uint64_t total_frames_corrupted = 0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t lost_outage = 0;
  std::uint64_t lost_random = 0;
  std::uint64_t lost_burst = 0;
  std::uint64_t lost_rm = 0;
  std::uint64_t corrupted_rm = 0;
  friend bool operator==(const Read&, const Read&) = default;
};

void PrintTo(const Read& r, std::ostream* os) {
  *os << "{data " << r.total_data << ", rm " << r.rm_turned
      << ", frames corrupted " << r.total_frames_corrupted << ", offered "
      << r.offered << ", delivered " << r.delivered << ", lost " << r.lost
      << " (outage " << r.lost_outage << ", random " << r.lost_random
      << ", burst " << r.lost_burst << ", rm " << r.lost_rm
      << "), in flight " << r.in_flight << ", corrupted " << r.corrupted_rm
      << "}";
}

void read_destination(const AbrDestination& d, Read& r) {
  for (int vc = 0; vc < kVcs; ++vc) {
    r.data_cells.push_back(d.data_cells_received(vc));
    r.frames_good.push_back(d.frames_good(vc));
    r.frames_corrupted.push_back(d.frames_corrupted(vc));
    r.mean_delay_ms.push_back(d.mean_delay_ms(vc));
  }
  r.total_data = d.total_data_cells();
  r.rm_turned = d.rm_cells_turned();
  r.total_frames_corrupted = d.total_frames_corrupted();
}

/// A backward RM cell at the far end of the destination's reverse link,
/// with the seq the kernel hands out next: equal only if every key
/// before it was drawn in the same order.
struct Brm {
  int vc;
  double er;
  double ccr;
  bool ci;
  Time at;
  std::uint64_t next_seq;
  friend bool operator==(const Brm&, const Brm&) = default;
};

class BrmSink final : public CellSink {
 public:
  explicit BrmSink(Simulator& sim) : sim_{&sim} {}
  void receive_cell(Cell c) override {
    brms.push_back(Brm{c.vc, c.er.bits_per_sec(), c.ccr.bits_per_sec(), c.ci,
                       sim_->now(), sim_->reserve(Time::zero()).seq});
  }
  std::vector<Brm> brms;

 private:
  Simulator* sim_;
};

// ------------------------------------------------------------ models

/// The destination port's link carries quiet cells.
struct QuietModel {
  explicit QuietModel(Time delay)
      : dest{sim, Link{sim, kReverseDelay, brms}},
        port{sim, kRate, 1'000'000, Link{sim, delay, dest}, nullptr} {
    dest.register_input(link());
  }
  LinkState& link() { return *port.link().state(); }
  void send(const Cell& c) { port.send(c); }
  void before_model_change() { link().settle(); }
  Read read() {
    Read r;
    read_destination(dest, r);
    const LinkState& l = link();
    r.offered = l.offered();
    r.lost = l.lost();
    r.in_flight = l.in_flight();
    const LinkState::Counters& c = l.counters();
    r.delivered = c.delivered;
    r.lost_outage = c.lost_outage;
    r.lost_random = c.lost_random;
    r.lost_burst = c.lost_burst;
    r.lost_rm = c.lost_rm;
    r.corrupted_rm = c.corrupted_rm;
    return r;
  }

  Simulator sim{kSimSeed};
  BrmSink brms{sim};
  AbrDestination dest;
  OutputPort port;
};

/// The same wiring over the evented line.
struct EventedModel {
  explicit EventedModel(Time delay)
      : dest{sim, Link{sim, kReverseDelay, brms}}, ref{sim, delay, dest} {
    ref.line.set_service(kCellTime);
  }
  RefLink& link() { return ref; }
  void send(const Cell& c) { ref.line.send(c); }
  void before_model_change() { ref.line.settle(); }
  Read read() {
    Read r;
    read_destination(dest, r);
    r.offered = ref.line.departed();
    r.delivered = ref.delivered;
    r.lost = ref.lost_random + ref.lost_outage + ref.lost_burst + ref.lost_rm;
    r.in_flight = r.offered - r.delivered - r.lost;
    r.lost_outage = ref.lost_outage;
    r.lost_random = ref.lost_random;
    r.lost_burst = ref.lost_burst;
    r.lost_rm = ref.lost_rm;
    r.corrupted_rm = ref.corrupted_rm;
    return r;
  }

  Simulator sim{kSimSeed};
  BrmSink brms{sim};
  AbrDestination dest;
  RefLink ref;
};

// ------------------------------------------------------------- script

enum Fault { kOutage, kFlap, kBurst, kLoss, kRmFault, kFaults };

struct Action {
  enum Kind { kCell, kEdge, kRead, kHistogram, kDraw };
  Time at;
  Kind kind = kCell;
  Cell cell;
  Fault fault = kOutage;
  bool on = false;
  /// kCell: also read at the cell's arrival, from a callback filed after
  /// the cell was sent (its key orders after the cell's).
  bool read_after = false;
  Time arrival;
};

struct Script {
  Time delay;
  std::vector<Action> actions;
  std::vector<Time> checkpoints;  // run_until() these, reading after each
  Time end;
};

bool by_time(const Action& a, const Action& b) { return a.at < b.at; }

Script make_script(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
  };
  const std::int64_t t_ns = kCellTime.nanoseconds();
  constexpr std::int64_t kSlots = 400;  // script length in cell times
  Script s;
  s.delay = kCellTime * uniform(0, 40) + Time::ns(uniform(0, t_ns - 1));

  // Cells: a calm background and a hot window that queues at the port.
  std::vector<Action> cells;
  std::uint32_t frame[kVcs] = {};
  std::uint16_t left[kVcs] = {};
  std::uint16_t len[kVcs] = {};
  const std::int64_t hot = uniform(40, 300);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t ns = uniform(0, 1) == 0
                                ? uniform(0, kSlots * t_ns)
                                : uniform(hot * t_ns, (hot + 60) * t_ns);
    const int vc = static_cast<int>(uniform(0, kVcs - 1));
    Action a;
    a.at = Time::ns(ns);
    Cell& c = a.cell;
    if (vc == kVcs - 1) {
      c = Cell::data(vc);  // CBR
      c.high_priority = true;
    } else if (uniform(0, 6) == 0) {
      c = Cell::forward_rm(vc, Rate::mbps(static_cast<double>(uniform(1, 50))),
                           Rate::mbps(static_cast<double>(uniform(50, 150))));
      c.ci = uniform(0, 5) == 0;
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
      c.efci = uniform(0, 3) == 0;
    }
    c.sent_at = a.at - Time::ns(uniform(0, 100'000));
    cells.push_back(a);
  }
  std::stable_sort(cells.begin(), cells.end(), by_time);

  // The FIFO port never drops (its limit is out of reach), so every
  // departure and arrival is known in advance.
  std::vector<Time> departure;
  Time last = Time::zero();
  for (Action& a : cells) {
    last = std::max(a.at, last) + kCellTime;
    departure.push_back(last);
    a.arrival = last + s.delay;
    a.read_after = uniform(0, 15) == 0;
  }
  std::vector<std::size_t> frms;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].cell.kind == CellKind::kForwardRm) frms.push_back(i);
  }

  // Fault edges, each less than a cell time before a forward RM cell
  // departs: flap has three down/up cycles, the others one window.
  for (int f = 0; f < kFaults; ++f) {
    const std::size_t edges = f == kFlap ? 6 : 2;
    std::vector<std::size_t> at;
    for (std::size_t e = 0; e < edges; ++e) {
      at.push_back(frms.at(static_cast<std::size_t>(
          uniform(0, static_cast<std::int64_t>(frms.size()) - 1))));
    }
    std::sort(at.begin(), at.end());
    for (std::size_t e = 0; e < edges; ++e) {
      Action a;
      a.kind = Action::kEdge;
      a.fault = static_cast<Fault>(f);
      a.on = e % 2 == 0;
      a.at = std::max(Time::zero(),
                      departure[at[e]] - Time::ns(uniform(1, t_ns)));
      s.actions.push_back(a);
    }
  }
  // Reads: at random instants, and at arrival instants from callbacks
  // filed before the run (their keys order before every cell's).
  for (int i = 0; i < 40; ++i) {
    Action a;
    a.kind = Action::kRead;
    a.at = Time::ns(uniform(0, (kSlots + 80) * t_ns));
    s.actions.push_back(a);
  }
  for (int i = 0; i < 40; ++i) {
    Action a;
    a.kind = Action::kRead;
    a.at = cells[static_cast<std::size_t>(uniform(0, 499))].arrival;
    s.actions.push_back(a);
  }
  for (int i = 0; i < 60; ++i) {
    Action a;
    a.kind = Action::kDraw;
    a.at = Time::ns(uniform(0, (kSlots + 80) * t_ns));
    s.actions.push_back(a);
  }
  {
    Action a;
    a.kind = Action::kHistogram;
    a.at = Time::ns(uniform(kSlots / 4 * t_ns, kSlots * 3 / 4 * t_ns));
    s.actions.push_back(a);
  }
  s.actions.insert(s.actions.end(), cells.begin(), cells.end());
  std::stable_sort(s.actions.begin(), s.actions.end(), by_time);
  for (int i = 0; i < 5; ++i) {
    s.checkpoints.push_back(Time::ns(uniform(0, (kSlots + 80) * t_ns)));
  }
  std::sort(s.checkpoints.begin(), s.checkpoints.end());
  s.end = last + s.delay + kReverseDelay + kCellTime;
  return s;
}

template <typename L>
void set_fault(L& l, const Action& a) {
  switch (a.fault) {
    case kOutage:
    case kFlap:
      l.down = a.on;
      break;
    case kBurst:
      l.burst_enabled = a.on;
      l.burst_bad = false;
      l.burst_p_good_bad = 0.3;
      l.burst_p_bad_good = 0.3;
      l.burst_loss_good = 0.0;
      l.burst_loss_bad = 0.6;
      break;
    case kLoss:
      l.loss = a.on ? 0.2 : 0.0;
      break;
    case kRmFault:
      l.rm_loss = a.on ? 0.3 : 0.0;
      l.rm_corrupt = a.on ? 0.5 : 0.0;
      break;
    case kFaults:
      break;
  }
}

struct Outcome {
  std::vector<Read> reads;
  std::vector<Brm> brms;
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
  double hist_max = 0.0;
  double hist_median = 0.0;
  std::vector<double> draws;  // the last one after the run
  std::uint64_t events = 0;
  std::uint64_t quiet = 0;  // cells handed over without an event
};

template <typename Model>
Outcome run(const Script& s) {
  Model m{s.delay};
  Outcome out;
  std::vector<double> bounds;  // ms, 0.01 ms buckets up to 1 ms
  for (int i = 1; i <= 100; ++i) bounds.push_back(i / 100.0);
  obs::Histogram hist{bounds};
  for (const Action& a : s.actions) {
    m.sim.schedule_at(a.at, [&m, &out, &hist, a] {
      switch (a.kind) {
        case Action::kCell:
          m.send(a.cell);
          if (a.read_after) {
            m.sim.schedule_at(a.arrival,
                              [&m, &out] { out.reads.push_back(m.read()); });
          }
          break;
        case Action::kEdge:
          m.before_model_change();
          set_fault(m.link(), a);
          break;
        case Action::kRead:
          out.reads.push_back(m.read());
          break;
        case Action::kHistogram:
          m.dest.set_delay_histogram(&hist);
          break;
        case Action::kDraw:
          out.draws.push_back(m.sim.rng().uniform(0.0, 1.0));
          break;
      }
    });
  }
  for (const Time t : s.checkpoints) {
    m.sim.run_until(t);
    out.reads.push_back(m.read());
  }
  m.sim.run_until(s.end);
  out.reads.push_back(m.read());
  m.dest.set_delay_histogram(nullptr);
  out.brms = m.brms.brms;
  out.hist_count = hist.count();
  out.hist_sum = hist.sum();
  out.hist_max = hist.max();
  out.hist_median = hist.quantile(0.5);
  out.draws.push_back(m.sim.rng().uniform(0.0, 1.0));
  out.events = m.sim.events_executed();
  if constexpr (requires { m.port; }) {
    out.quiet = m.link().line.quiet_arrivals();
  }
  return out;
}

TEST(QuietArrivalDifferentialTest, AgreesWithEventedLineOnRandomScripts) {
  std::uint64_t quiet = 0, lost = 0, corrupted = 0, brms = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("script seed " + std::to_string(seed));
    const Script script = make_script(seed);
    const Outcome ref = run<EventedModel>(script);
    const Outcome got = run<QuietModel>(script);

    ASSERT_EQ(ref.reads.size(), got.reads.size());
    for (std::size_t i = 0; i < ref.reads.size(); ++i) {
      ASSERT_EQ(ref.reads[i], got.reads[i]) << "reads diverge at read " << i;
    }
    ASSERT_EQ(ref.brms.size(), got.brms.size());
    for (std::size_t i = 0; i < ref.brms.size(); ++i) {
      ASSERT_TRUE(ref.brms[i] == got.brms[i])
          << "backward RM cell " << i << " differs in a field or its key";
    }
    EXPECT_EQ(ref.hist_count, got.hist_count);
    EXPECT_EQ(ref.hist_sum, got.hist_sum);
    EXPECT_EQ(ref.hist_max, got.hist_max);
    EXPECT_EQ(ref.hist_median, got.hist_median);
    EXPECT_EQ(ref.draws, got.draws) << "the link's draws moved";
    // A quiet item saves its event, and no filed item costs one the
    // evented line did not have.
    EXPECT_LE(got.events, ref.events);

    const Read& last = ref.reads.back();
    lost += last.lost;
    corrupted += last.corrupted_rm;
    brms += ref.brms.size();
    EXPECT_GT(ref.hist_count, 0u);
    quiet += got.quiet;
  }
  // The scripts reach every path they are meant to compare.
  EXPECT_GT(lost, 500u);
  EXPECT_GT(corrupted, 20u);
  EXPECT_GT(brms, 1000u);
  EXPECT_GT(quiet, 1000u) << "few cells arrived without an event";
}

// A forward RM cell is filed ahead of the quiet data cells before it,
// and an outage judges it lost before the evented line reaches it: the
// evented line skips it without an event. The filed event goes when the
// line finds the cell lost at the head's arrival, so every quiet cell
// saves its event and nothing costs one more.
TEST(QuietArrivalDifferentialTest, LostFiledCellBehindTheHeadCostsNoEvent) {
  Script s;
  s.delay = kCellTime * 40;
  for (int i = 0; i < 6; ++i) {
    Action a;
    a.at = Time::zero();
    a.cell = i < 5 ? Cell::data(0) : Cell::forward_rm(0, kRate, kRate);
    a.arrival = kCellTime * (i + 1) + s.delay;
    s.actions.push_back(a);
  }
  // Down from just before the forward RM cell departs (6 cell times).
  for (const bool on : {true, false}) {
    Action a;
    a.kind = Action::kEdge;
    a.fault = kOutage;
    a.on = on;
    a.at = on ? kCellTime * 6 - Time::ns(1) : kCellTime * 12;
    s.actions.push_back(a);
  }
  s.end = kCellTime * 60 + s.delay;
  const Outcome ref = run<EventedModel>(s);
  const Outcome got = run<QuietModel>(s);
  EXPECT_EQ(ref.reads, got.reads);
  EXPECT_EQ(ref.reads.back().lost_outage, 1u);
  EXPECT_EQ(got.quiet, 4u);
  EXPECT_EQ(got.events + got.quiet, ref.events);
}

}  // namespace
}  // namespace phantom::atm
