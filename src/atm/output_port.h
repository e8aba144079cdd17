// Output-queued switch port: FIFO buffer + transmitter + controller.
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
#include "sim/ring.h"
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
/// The port notifies its controller of accepted / dropped / transmitted
/// cells (the raw material for rate measurement) and lets the controller
/// mark EFCI on queued data cells. Backward-RM processing is *not* done
/// here — the owning Switch routes BRM cells to the controller of the
/// VC's forward port (see Switch::receive_cell).
class OutputPort {
 public:
  /// `rate` is the link's cell rate; `queue_limit` is in cells; `link`
  /// carries transmitted cells to the next hop.
  OutputPort(sim::Simulator& sim, sim::Rate rate, std::size_t queue_limit,
             Link link, std::unique_ptr<PortController> controller,
             QueueDiscipline discipline = QueueDiscipline::kFifo);

  OutputPort(const OutputPort&) = delete;
  OutputPort& operator=(const OutputPort&) = delete;

  /// Enqueues (or drops) a cell for transmission.
  void send(Cell cell);

  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() + priority_queue_.size();
  }
  [[nodiscard]] std::size_t max_queue_length() const { return max_queue_; }
  [[nodiscard]] std::uint64_t cells_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t cells_transmitted() const { return transmitted_; }
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
  /// thresholds, hard budget) and every transmission returns its cell.
  /// `bm` must outlive the port; `port_id` is the id register_port()
  /// returned. Attach before traffic flows — cells already queued are
  /// unknown to the manager.
  void attach_buffer_manager(BufferManager* bm, int port_id) {
    assert(queue_length() == 0 && "attach before any cell is queued");
    buffer_mgr_ = bm;
    bm_port_id_ = port_id;
  }
  [[nodiscard]] bool buffer_managed() const { return buffer_mgr_ != nullptr; }

  /// Attaches the structured event log: every enqueue and every drop
  /// (with its reason) is recorded, and the controller's rate updates
  /// ride along. `node`/`port` identify this port in the trace.
  void set_event_log(obs::EventLog* log, int node, int port) {
    event_log_ = log;
    obs_node_ = static_cast<std::int16_t>(node);
    obs_port_ = static_cast<std::int16_t>(port);
    controller_->set_event_log(log, node, port);
  }

  /// Registers this port's counters, queue gauges, the queue-depth
  /// histogram (sampled at each accepted cell from registration on),
  /// and the controller's metrics, all under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix);

 private:
  void start_transmission();
  void on_transmission_complete();

  void record_cell_event(obs::EventKind kind, const Cell& cell,
                         std::uint8_t detail) {
    if constexpr (obs::kObsEnabled) {
      if (event_log_ != nullptr) {
        obs::Event e;
        e.time = sim_->now();
        e.kind = kind;
        e.detail = detail;
        e.node = obs_node_;
        e.port = obs_port_;
        e.vc = cell.vc;
        e.a = static_cast<double>(queue_length());
        event_log_->record(e);
      }
    } else {
      (void)kind;
      (void)cell;
      (void)detail;
    }
  }

  sim::Simulator* sim_;
  sim::Rate rate_;
  std::size_t queue_limit_;
  Link link_;
  std::unique_ptr<PortController> controller_;

  QueueDiscipline discipline_;
  sim::Ring<Cell> queue_;           // best-effort (ABR) cells
  sim::Ring<Cell> priority_queue_;  // guaranteed-class cells
  sim::Ring<Cell>* serving_ = nullptr;  // queue of the cell on the wire
  bool transmitting_ = false;
  std::size_t max_queue_ = 0;
  BufferManager* buffer_mgr_ = nullptr;  // switch-wide memory, if bounded
  int bm_port_id_ = -1;
  std::size_t clp_threshold_ = SIZE_MAX;
  std::uint64_t clp_dropped_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t transmitted_ = 0;
  std::uint64_t accepted_ = 0;
  obs::EventLog* event_log_ = nullptr;
  std::int16_t obs_node_ = -1;
  std::int16_t obs_port_ = -1;
  /// Queue depth at each accepted cell; allocated (and sampled) only
  /// once register_metrics has run, so unobserved ports pay nothing.
  std::unique_ptr<obs::Histogram> queue_hist_;
};

}  // namespace phantom::atm
