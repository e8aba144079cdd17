#include "atm/output_port.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace phantom::atm {
namespace {

/// One cell's serialization time at `rate`, checked in every build
/// type: every departure the port computes is a multiple of it.
sim::Time cell_time_at(sim::Rate rate) {
  const double bps = rate.bits_per_sec();
  if (!std::isfinite(bps) || bps <= 0.0) {
    throw std::invalid_argument{"OutputPort: link rate must be finite and "
                                "positive, got " + rate.to_string()};
  }
  const double ns = static_cast<double>(kCellBits) / bps * 1e9;
  if (ns < 0.5 ||
      ns >= static_cast<double>(std::numeric_limits<std::int64_t>::max())) {
    throw std::invalid_argument{"OutputPort: the cell time at " +
                                rate.to_string() +
                                " does not fit in sim::Time"};
  }
  return rate.transmission_time(kCellBits);
}

}  // namespace

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
  const sim::Time cell_time = cell_time_at(rate);
  assert(queue_limit_ > 0);
  if (!controller_) controller_ = std::make_unique<NullController>();
  line().set_service(cell_time);
  link_.state()->feeder = controller_.get();
}

OutputPort::~OutputPort() { link_.state()->feeder = nullptr; }

void OutputPort::send(Cell cell) {
  const std::size_t queued = queue_length();
  const bool clp_overflow = cell.clp && queued >= clp_threshold_;
  if (queued >= queue_limit_ || clp_overflow) {
    ++dropped_;
    const bool clp_only = clp_overflow && queued < queue_limit_;
    if (clp_only) ++clp_dropped_;
    record_cell_event(obs::EventKind::kCellDrop, cell,
                      static_cast<std::uint8_t>(
                          clp_only ? obs::DropReason::kClpThreshold
                                   : obs::DropReason::kQueueLimit),
                      queued);
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
                        static_cast<std::uint8_t>(reason), queued);
      controller_->on_cell_dropped(cell);
      return;
    }
  }
  if (cell.kind == CellKind::kData && controller_->mark_efci(queued)) {
    cell.efci = true;
  }
  if (discipline_ == QueueDiscipline::kStrictPriority && cell.high_priority) {
    // Behind the cell being serialized (its service began at or before
    // now) and the guaranteed-class cells already waiting, ahead of the
    // best-effort rest.
    sim::Time after = line().last_departure();
    if (queued > 1) {
      after -= line().service() * static_cast<std::int64_t>(queued - 1);
      after = std::max(after, priority_departure_);
    }
    priority_departure_ = line().send_after(cell, after);
  } else {
    line().send(cell);
  }
  // Every cell waiting before still waits, behind or after this one.
  const std::size_t now_queued = queued + 1;
  max_queue_ = std::max(max_queue_, now_queued);
  ++accepted_;
  if (queue_hist_) queue_hist_->observe(static_cast<double>(now_queued));
  record_cell_event(obs::EventKind::kCellEnqueue, cell, 0, now_queued);
  controller_->on_cell_accepted(cell, now_queued);
}

void OutputPort::register_metrics(obs::Registry& reg,
                                  const std::string& prefix) {
  reg.add_counter({prefix + ".cells_transmitted", "port.cells_transmitted",
                   obs::MetricType::kCounter, "cells", "OutputPort",
                   "cells fully serialized onto the link"},
                  [this] { return cells_transmitted(); });
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

}  // namespace phantom::atm
