// Output-queued switch port: a departure-time queue + controller.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>

#include "atm/buffer_manager.h"
#include "atm/cell.h"
#include "atm/link.h"
#include "atm/port_controller.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace phantom::atm {

/// How an output port schedules its buffered cells.
enum class QueueDiscipline {
  kFifo,            ///< single FIFO (default)
  kStrictPriority,  ///< high_priority cells (CBR/VBR) always go first
};

/// One output port of a switch: a bounded cell queue drained at the
/// link rate, with an attached flow-control algorithm.
///
/// The port is a departure-time port. A cell's departure is fixed when
/// the cell is accepted — one cell time after the later of now and the
/// previous departure — and its arrival at the far end (departure plus
/// link delay) is reserved at once; on a strict-priority port, each
/// guaranteed-class cell that overtakes a waiting best-effort cell
/// moves it back one cell time. The queue is therefore the front
/// of the link's line (sim::DelayLine): the cells whose departure is
/// still ahead, where a departure equal to now() has happened. Queue
/// length, cells transmitted and buffer occupancy are functions of that
/// line and the clock; the controller's on_cell_transmitted and the
/// link's fault judgment run lazily in departure order, no later than
/// the cell's arrival. No kernel event marks a departure.
///
/// The port notifies its controller of accepted / dropped / transmitted
/// cells (the raw material for rate measurement) and lets the controller
/// mark EFCI on queued data cells. Backward-RM processing is *not* done
/// here — the owning Switch routes BRM cells to the controller of the
/// VC's forward port (see Switch::receive_cell).
class OutputPort {
 public:
  /// `rate` is the link's cell rate; `queue_limit` is in cells; `link`
  /// carries transmitted cells to the next hop, and its line becomes
  /// this port's queue. Throws std::invalid_argument unless `rate` is
  /// finite and positive with a cell time from 1 ns up to what
  /// sim::Time holds.
  OutputPort(sim::Simulator& sim, sim::Rate rate, std::size_t queue_limit,
             Link link, std::unique_ptr<PortController> controller,
             QueueDiscipline discipline = QueueDiscipline::kFifo);
  ~OutputPort();

  OutputPort(const OutputPort&) = delete;
  OutputPort& operator=(const OutputPort&) = delete;

  /// Enqueues (or drops) a cell for transmission.
  void send(Cell cell);

  /// Cells whose departure is after now, the one being serialized
  /// included.
  [[nodiscard]] std::size_t queue_length() const { return line().waiting(); }
  [[nodiscard]] std::size_t max_queue_length() const { return max_queue_; }
  [[nodiscard]] std::uint64_t cells_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t cells_transmitted() const {
    return accepted_ - queue_length();
  }
  [[nodiscard]] std::uint64_t cells_accepted() const { return accepted_; }
  [[nodiscard]] sim::Rate rate() const { return rate_; }
  [[nodiscard]] std::size_t queue_limit() const { return queue_limit_; }

  /// Partial buffer sharing: once the queue holds at least `threshold`
  /// cells, CLP-tagged (policer-marked) arrivals are dropped instead of
  /// queued, so a tag-mode policer costs violators buffer space under
  /// pressure while untagged traffic still gets the full queue_limit.
  /// Default SIZE_MAX = tagged cells are treated like any other.
  void set_clp_threshold(std::size_t threshold) { clp_threshold_ = threshold; }
  [[nodiscard]] std::size_t clp_threshold() const { return clp_threshold_; }
  /// CLP-tagged cells dropped by the partial-buffer-sharing threshold
  /// (a subset of cells_dropped()).
  [[nodiscard]] std::uint64_t clp_cells_dropped() const { return clp_dropped_; }

  /// The link this port transmits onto — the fault subsystem drives
  /// outages/loss through its shared state, and the invariant monitor
  /// reads its aggregate counters.
  [[nodiscard]] Link& link() { return link_; }
  [[nodiscard]] const Link& link() const { return link_; }

  /// Never null; NullController when the port runs no flow control.
  [[nodiscard]] PortController& controller() { return *controller_; }
  [[nodiscard]] const PortController& controller() const { return *controller_; }

  /// Joins the owning switch's bounded cell memory: every enqueue must
  /// clear the BufferManager's admission (frame-aware EPD/PPD, dynamic
  /// thresholds, hard budget), and a cell's memory is free from its
  /// departure on. `bm` must outlive the port; `port_id` is the id
  /// register_port(this) returned. Attach before traffic flows — cells
  /// already queued are unknown to the manager.
  void attach_buffer_manager(BufferManager* bm, int port_id) {
    assert(queue_length() == 0 && "attach before any cell is queued");
    buffer_mgr_ = bm;
    bm_port_id_ = port_id;
  }

  /// Attaches the structured event log: every enqueue and every drop
  /// (with its reason) is recorded, and the controller's rate updates
  /// ride along. `node`/`port` identify this port in the trace.
  void set_event_log(obs::EventLog* log, int node, int port) {
    tap_ = obs::Tap{log, node, port};
    controller_->set_event_log(log, node, port);
  }

  /// Registers this port's counters, queue gauges, the queue-depth
  /// histogram (sampled at each accepted cell from registration on),
  /// and the controller's metrics, all under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix);

 private:
  [[nodiscard]] sim::DelayLine<Cell, LinkState>& line() const {
    return link_.state()->line;
  }

  /// `queued` is queue_length() as it stands, which send() has at hand.
  void record_cell_event(obs::EventKind kind, const Cell& cell,
                         std::uint8_t detail, std::size_t queued) {
    if (tap_) {
      tap_.record({.time = sim_->now(),
                   .kind = kind,
                   .detail = detail,
                   .vc = cell.vc,
                   .a = static_cast<double>(queued)});
    }
  }

  sim::Simulator* sim_;
  sim::Rate rate_;
  std::size_t queue_limit_;
  Link link_;
  std::unique_ptr<PortController> controller_;

  QueueDiscipline discipline_;
  /// Departure of the last guaranteed-class cell a strict-priority port
  /// put ahead of best-effort cells.
  sim::Time priority_departure_ = sim::Time::zero();
  std::size_t max_queue_ = 0;
  BufferManager* buffer_mgr_ = nullptr;  // switch-wide memory, if bounded
  int bm_port_id_ = -1;
  std::size_t clp_threshold_ = SIZE_MAX;
  std::uint64_t clp_dropped_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t accepted_ = 0;
  obs::Tap tap_;
  /// Queue depth at each accepted cell; allocated (and sampled) only
  /// once register_metrics has run, so unobserved ports pay nothing.
  std::unique_ptr<obs::Histogram> queue_hist_;
};

}  // namespace phantom::atm
