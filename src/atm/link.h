// Propagation-delay pipe between network elements.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>

#include "atm/cell.h"
#include "atm/port_controller.h"
#include "sim/delay_line.h"
#include "sim/simulator.h"

namespace phantom::atm {

class AbrDestination;
class AbrSource;

/// Fault model, cumulative statistics and cells on the line of one
/// physical link hop.
///
/// Every copy of a Link shares one LinkState (links are value types, so
/// without sharing each holder's copy would keep private counters and
/// aggregate loss totals would be wrong). The fault subsystem
/// (fault::FaultInjector) mutates the model fields mid-run: outages,
/// Gilbert–Elliott loss bursts and RM-cell-targeted faults. Faults act
/// when a cell departs onto the link; cells already on the wire arrive
/// unharmed. A link fed by an OutputPort judges its cells lazily (see
/// sim::DelayLine), so whoever changes the model calls settle() first:
/// every cell that departed before the change is judged under the
/// model it departed under.
///
/// A link into an AbrDestination registered as its reader carries
/// quiet data cells: they reach the destination without a kernel event
/// (see sim::DelayLine, and quiet() below). The counters are therefore
/// read through accessors that first hand over the cells that have
/// arrived.
///
/// A link an AbrSource sends on carries no line: the source keeps its
/// cells in flight itself and files their arrivals (lazy pacing, see
/// AbrSource). The counters count those cells too, and every read first
/// has the source run its due sends.
struct LinkState {
  LinkState(sim::Simulator& simulator, sim::Time delay, CellSink& receiver)
      : line{simulator, delay, *this}, sink{&receiver}, sim{&simulator} {}

  // --- fault model (mutable at runtime; settle() first) ---
  bool down = false;  ///< outage: every cell departing is dropped
  double loss = 0.0;  ///< independent per-cell loss probability

  /// Gilbert–Elliott two-state burst-loss model: the chain steps once
  /// per departing cell between Good and Bad, each state with its own
  /// loss probability. Captures the correlated loss runs that
  /// independent Bernoulli loss cannot produce.
  bool burst_enabled = false;
  bool burst_bad = false;         ///< current chain state
  double burst_p_good_bad = 0.0;  ///< P(Good -> Bad) per cell
  double burst_p_bad_good = 0.0;  ///< P(Bad -> Good) per cell
  double burst_loss_good = 0.0;   ///< loss probability while Good
  double burst_loss_bad = 0.0;    ///< loss probability while Bad

  /// RM-cell-only faults: the control loop's feedback path fails while
  /// data cells flow untouched (lost RM cells stall feedback; corrupted
  /// ones carry garbage ER/CI the sources must survive).
  double rm_loss = 0.0;     ///< extra loss applied to RM cells only
  double rm_corrupt = 0.0;  ///< probability an RM cell's fields are scrambled

  /// Whether the model draws random numbers when it judges a cell.
  /// Those draws must happen at the instants the evented line settles,
  /// so while it does, no cell is quiet.
  [[nodiscard]] bool draws_random() const {
    return loss > 0.0 || burst_enabled || rm_loss > 0.0 || rm_corrupt > 0.0;
  }

  // --- cumulative statistics (shared across all copies) ---
  struct Counters {
    std::uint64_t delivered = 0;     ///< handed to the sink or the reader
    std::uint64_t lost_random = 0;   ///< independent Bernoulli loss
    std::uint64_t lost_outage = 0;   ///< dropped while down
    std::uint64_t lost_burst = 0;    ///< Gilbert–Elliott loss
    std::uint64_t lost_rm = 0;       ///< RM-targeted loss
    std::uint64_t corrupted_rm = 0;  ///< RM cells delivered with scrambled fields
  };
  /// The counters, once the quiet cells that have arrived are handed
  /// over.
  [[nodiscard]] const Counters& counters() const {
    catch_up();
    return counters_;
  }

  /// Cells that have departed onto the link (a port's queued cells have
  /// not), the cells the writer sent included.
  [[nodiscard]] std::uint64_t offered() const {
    catch_up();
    return line.departed() + written_;
  }
  /// Cells judged lost so far; a departed cell not judged yet is still
  /// in flight.
  [[nodiscard]] std::uint64_t lost() const {
    const Counters& c = counters();
    return c.lost_random + c.lost_outage + c.lost_burst + c.lost_rm;
  }
  /// Cells departed and neither delivered nor judged lost; always
  /// line.size() - line.waiting() after catch_up() on a link without a
  /// writer.
  [[nodiscard]] std::uint64_t in_flight() const {
    const std::uint64_t judged_lost = lost();
    return offered() - counters_.delivered - judged_lost;
  }

  /// Judges every cell that has departed by now under the current
  /// fault model, after handing over the quiet cells that have arrived,
  /// and files the line's next arrival. Call before changing the model.
  void settle() {
    catch_up();
    line.settle();
  }
  /// Hands the reader the quiet cells that have arrived by now, and has
  /// the writer run the sends due by now.
  void catch_up() const {
    if (writer != nullptr) catch_up_writer();
    line.catch_up();
  }

  // --- the line ---
  /// Cells on the line in departure order: a feeding port's queue, then
  /// the cells on the wire. Its head event points back at this state,
  /// so a LinkState must outlive every run that could deliver from it,
  /// exactly like `sink`. Mutable: a counter read hands over the quiet
  /// cells that have already arrived, which changes no count a reader
  /// could tell apart from the evented line's.
  mutable sim::DelayLine<Cell, LinkState> line;
  CellSink* sink;
  /// Controller of the OutputPort whose queue is this line, told of
  /// each departure; null for a link an end system sends on.
  PortController* feeder = nullptr;
  sim::Simulator* sim;
  /// The sink, when it is an AbrDestination that registered this link
  /// (AbrDestination::register_input) and takes its data cells without
  /// an arrival event. Only a FIFO port's link may be registered: a
  /// strict-priority port re-keys waiting cells (DelayLine::send_after).
  AbrDestination* reader = nullptr;
  /// The AbrSource sending on this link, which holds the cells in
  /// flight and hands each to arrive() (set by the source).
  AbrSource* writer = nullptr;
  /// Counts a cell the writer put on the link.
  void count_written() { ++written_; }

  /// The line's quiet-item test: a data cell into a registered reader,
  /// while the fault model draws nothing. RM cells keep their events:
  /// the destination turns forward RM cells around at once.
  [[nodiscard]] bool quiet(const Cell& cell) const {
    return reader != nullptr && cell.kind == CellKind::kData &&
           !draws_random();
  }

  /// The line's departure hook: notifies the feeding port's controller,
  /// then applies the fault model. Returns false if the cell is lost.
  bool depart(Cell& cell) {
    if (feeder != nullptr) feeder->on_cell_transmitted(cell);
    if (down) {
      ++counters_.lost_outage;
      return false;
    }
    // Each random draw is gated on its feature being enabled so that
    // runs without faults consume exactly the same rng stream as before
    // the fault subsystem existed (seed-for-seed reproducibility).
    if (burst_enabled) {
      const double p_flip = burst_bad ? burst_p_bad_good : burst_p_good_bad;
      if (p_flip > 0.0 && sim->rng().bernoulli(p_flip)) burst_bad = !burst_bad;
      const double p_loss = burst_bad ? burst_loss_bad : burst_loss_good;
      if (p_loss > 0.0 && sim->rng().bernoulli(p_loss)) {
        ++counters_.lost_burst;
        return false;
      }
    }
    if (loss > 0.0 && sim->rng().bernoulli(loss)) {
      ++counters_.lost_random;
      return false;
    }
    if (cell.is_rm()) {
      if (rm_loss > 0.0 && sim->rng().bernoulli(rm_loss)) {
        ++counters_.lost_rm;
        return false;
      }
      if (rm_corrupt > 0.0 && sim->rng().bernoulli(rm_corrupt)) {
        corrupt_rm(cell);
      }
    }
    return true;
  }

  /// The line's arrival hook: the head cell reached the far end.
  void arrive(const Cell& cell) {
    ++counters_.delivered;
    sink->receive_cell(cell);
  }
  /// The line's hook for a quiet cell that arrived at `at` (defined
  /// with AbrDestination).
  void arrive_quiet(const Cell& cell, sim::Time at);

 private:
  void corrupt_rm(Cell& cell) {
    ++counters_.corrupted_rm;
    // Scramble the feedback fields: ER anywhere in [0, 2x its value]
    // (an *increase* exercises the source's PCR clamp) and CI flipped
    // half the time.
    cell.er = sim::Rate::bps(
        sim->rng().uniform(0.0, 2.0 * cell.er.bits_per_sec() + 1.0));
    if (sim->rng().bernoulli(0.5)) cell.ci = !cell.ci;
  }

  /// AbrSource::catch_up() (defined with AbrSource).
  void catch_up_writer() const;

  Counters counters_;
  std::uint64_t written_ = 0;  // cells the writer sent
};

/// Unidirectional link: delivers cells to `sink` after a fixed
/// propagation delay. Serialization (transmission) time is modelled by
/// the OutputPort feeding the link, whose queue is the link's line, so
/// Link itself is pure latency; this matches the classic DES
/// decomposition and lets sources with their own pacing connect
/// directly.
///
/// Links are value types; all copies share one LinkState, so loss
/// accounting stays aggregate and fault transitions applied through any
/// copy (or through a retained state() handle) affect the physical hop.
class Link {
 public:
  Link(sim::Simulator& sim, sim::Time delay, CellSink& sink,
       double loss_probability = 0.0)
      : state_{std::make_shared<LinkState>(sim, delay, sink)} {
    assert(!delay.is_negative());
    assert(loss_probability >= 0.0 && loss_probability <= 1.0);
    state_->loss = loss_probability;
  }

  /// Sends a cell from an end system: it departs now, and the fault
  /// model judges it at once.
  void deliver(const Cell& cell) { state_->line.send(cell); }

  [[nodiscard]] sim::Time delay() const { return state_->line.delay(); }
  [[nodiscard]] std::uint64_t cells_lost() const { return state_->lost(); }
  [[nodiscard]] std::uint64_t cells_delivered() const {
    return state_->counters().delivered;
  }

  /// Shared fault/statistics block; retain it to drive faults or read
  /// aggregate counters after the Link value has been copied around.
  [[nodiscard]] const std::shared_ptr<LinkState>& state() const {
    return state_;
  }

 private:
  std::shared_ptr<LinkState> state_;
};

}  // namespace phantom::atm
