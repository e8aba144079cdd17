#include "atm/output_port.h"

#include <cassert>
#include <utility>

namespace phantom::atm {

OutputPort::OutputPort(sim::Simulator& sim, sim::Rate rate,
                       std::size_t queue_limit, Link link,
                       std::unique_ptr<PortController> controller,
                       QueueDiscipline discipline)
    : sim_{&sim},
      rate_{rate},
      queue_limit_{queue_limit},
      link_{link},
      controller_{std::move(controller)},
      discipline_{discipline} {
  assert(rate.bits_per_sec() > 0.0);
  assert(queue_limit_ > 0);
  if (!controller_) controller_ = std::make_unique<NullController>();
}

void OutputPort::send(Cell cell) {
  const bool clp_overflow = cell.clp && queue_length() >= clp_threshold_;
  if (queue_length() >= queue_limit_ || clp_overflow) {
    ++dropped_;
    const bool clp_only = clp_overflow && queue_length() < queue_limit_;
    if (clp_only) ++clp_dropped_;
    record_cell_event(obs::EventKind::kCellDrop, cell,
                      static_cast<std::uint8_t>(
                          clp_only ? obs::DropReason::kClpThreshold
                                   : obs::DropReason::kQueueLimit));
    // Either way the drop goes through the controller: queue-pressure
    // drops are offered load the algorithm must see [Sat96 counts every
    // arrival, served or not].
    controller_->on_cell_dropped(cell);
    return;
  }
  if (buffer_mgr_ != nullptr) {
    const BufferManager::Verdict verdict =
        buffer_mgr_->admit(bm_port_id_, cell, sim_->now());
    if (verdict != BufferManager::Verdict::kAccept) {
      // Same accounting as a queue-limit drop: the controller still sees
      // the offered load, and the port's dropped counter keeps the
      // conservation ledger exact (the manager's counters say *why*).
      ++dropped_;
      obs::DropReason reason = obs::DropReason::kBufferOverflow;
      switch (verdict) {
        case BufferManager::Verdict::kDropEpd:
          reason = obs::DropReason::kBufferEpd;
          break;
        case BufferManager::Verdict::kDropPpd:
          reason = obs::DropReason::kBufferPpd;
          break;
        case BufferManager::Verdict::kDropShed:
          reason = obs::DropReason::kBufferShed;
          break;
        default:
          break;
      }
      record_cell_event(obs::EventKind::kCellDrop, cell,
                        static_cast<std::uint8_t>(reason));
      controller_->on_cell_dropped(cell);
      return;
    }
  }
  if (cell.kind == CellKind::kData && controller_->mark_efci(queue_length())) {
    cell.efci = true;
  }
  if (discipline_ == QueueDiscipline::kStrictPriority && cell.high_priority) {
    priority_queue_.push_back(cell);
  } else {
    queue_.push_back(cell);
  }
  max_queue_ = std::max(max_queue_, queue_length());
  ++accepted_;
  if (queue_hist_) queue_hist_->observe(static_cast<double>(queue_length()));
  record_cell_event(obs::EventKind::kCellEnqueue, cell, 0);
  controller_->on_cell_accepted(cell, queue_length());
  if (!transmitting_) start_transmission();
}

void OutputPort::register_metrics(obs::Registry& reg,
                                  const std::string& prefix) {
  reg.add_counter({prefix + ".cells_transmitted", "port.cells_transmitted",
                   obs::MetricType::kCounter, "cells", "OutputPort",
                   "cells fully serialized onto the link"},
                  [this] { return transmitted_; });
  reg.add_counter({prefix + ".cells_accepted", "port.cells_accepted",
                   obs::MetricType::kCounter, "cells", "OutputPort",
                   "cells accepted into the queue"},
                  [this] { return accepted_; });
  reg.add_counter({prefix + ".cells_dropped", "port.cells_dropped",
                   obs::MetricType::kCounter, "cells", "OutputPort",
                   "cells dropped at the queue (all reasons)"},
                  [this] { return dropped_; });
  reg.add_counter({prefix + ".clp_cells_dropped", "port.clp_cells_dropped",
                   obs::MetricType::kCounter, "cells", "OutputPort",
                   "CLP-tagged cells dropped by partial buffer sharing"},
                  [this] { return clp_dropped_; });
  reg.add_gauge({prefix + ".queue_cells", "port.queue_cells",
                 obs::MetricType::kGauge, "cells", "OutputPort",
                 "current queue occupancy"},
                [this] { return static_cast<double>(queue_length()); });
  reg.add_gauge({prefix + ".max_queue_cells", "port.max_queue_cells",
                 obs::MetricType::kGauge, "cells", "OutputPort",
                 "peak queue occupancy so far"},
                [this] { return static_cast<double>(max_queue_); });
  if (!queue_hist_) {
    queue_hist_ = std::make_unique<obs::Histogram>(
        std::vector<double>{1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                            1024, 2048, 4096});
  }
  reg.add_histogram({prefix + ".queue_depth", "port.queue_depth",
                     obs::MetricType::kHistogram, "cells", "OutputPort",
                     "queue depth observed at each accepted cell"},
                    queue_hist_.get());
  controller_->register_metrics(reg, prefix + ".ctl");
}

void OutputPort::start_transmission() {
  assert(queue_length() > 0);
  transmitting_ = true;
  // Pin the cell entering service now: a higher-priority arrival during
  // its serialization must not preempt it.
  serving_ = priority_queue_.empty() ? &queue_ : &priority_queue_;
  sim_->schedule(rate_.transmission_time(kCellBits),
                 sim::bind_member<&OutputPort::on_transmission_complete>(this));
}

void OutputPort::on_transmission_complete() {
  assert(serving_ != nullptr && !serving_->empty());
  sim::Ring<Cell>& q = *serving_;
  serving_ = nullptr;
  const Cell cell = q.front();
  q.pop_front();
  if (buffer_mgr_ != nullptr) buffer_mgr_->release(bm_port_id_, cell);
  ++transmitted_;
  controller_->on_cell_transmitted(cell);
  link_.deliver(cell);
  if (queue_length() > 0) {
    start_transmission();
  } else {
    transmitting_ = false;
  }
}

}  // namespace phantom::atm
