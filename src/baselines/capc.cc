#include "baselines/capc.h"

#include <algorithm>
#include <cassert>

#include "atm/cell.h"

namespace phantom::baselines {

CapcController::CapcController(sim::Simulator& sim, sim::Rate link_capacity,
                               CapcConfig config)
    : sim_{&sim},
      config_{config},
      target_bps_{link_capacity.bits_per_sec() * config.utilization},
      ers_{std::clamp(config.initial_ers.bits_per_sec(),
                      config.min_ers.bits_per_sec(), target_bps_)} {
  config_.validate();
  assert(link_capacity.bits_per_sec() > 0.0);
  sim_->schedule(config_.interval,
                 sim::bind_member<&CapcController::on_interval>(this));
}

void CapcController::on_cell_accepted(const atm::Cell&, std::size_t) {
  ++arrived_cells_;
}

void CapcController::on_cell_dropped(const atm::Cell&) { ++arrived_cells_; }

void CapcController::on_forward_rm(atm::Cell& cell, std::size_t) {
  // CAPC learns nothing from CCRs in steady state; the warm-start audit
  // window is the only listener.
  if (warm_.open() && warm_.sample(cell.ccr.bits_per_sec())) {
    close_warm_window();
  }
}

void CapcController::close_warm_window() {
  if (const auto seed = warm_.close()) {
    ers_ = std::clamp(*seed, config_.min_ers.bits_per_sec(), target_bps_);
    warm_.record_seed(ers_);
    note_rate_update(sim_->now());
  }
}

void CapcController::warm_restart() {
  reset();
  warm_.begin();
}

void CapcController::on_interval() {
  if (warm_.ripe()) close_warm_window();  // first tick after RM traffic
  const double offered_bps = static_cast<double>(arrived_cells_) *
                             static_cast<double>(atm::kCellBits) /
                             config_.interval.seconds();
  arrived_cells_ = 0;
  const double z = offered_bps / target_bps_;
  if (z < 1.0) {
    ers_ *= std::min(config_.eru, 1.0 + (1.0 - z) * config_.rate_up);
  } else {
    ers_ *= std::max(config_.erf, 1.0 - (z - 1.0) * config_.rate_down);
  }
  ers_ = std::clamp(ers_, config_.min_ers.bits_per_sec(), target_bps_);
  note_rate_update(sim_->now());
  sim_->schedule(config_.interval,
                 sim::bind_member<&CapcController::on_interval>(this));
}

void CapcController::reset() {
  ers_ = std::clamp(config_.initial_ers.bits_per_sec(),
                    config_.min_ers.bits_per_sec(), target_bps_);
  arrived_cells_ = 0;
  note_rate_update(sim_->now());
}

void CapcController::on_backward_rm(atm::Cell& cell, std::size_t queue_len) {
  cell.er = std::min(cell.er, sim::Rate::bps(ers_));
  if (queue_len > config_.ci_queue_threshold) cell.ci = true;
}

}  // namespace phantom::baselines
