#include "baselines/aprc.h"

#include <algorithm>
#include <cassert>

namespace phantom::baselines {

AprcController::AprcController(sim::Simulator& sim, sim::Rate link_capacity,
                               AprcConfig config)
    : sim_{&sim},
      config_{config},
      link_bps_{link_capacity.bits_per_sec()},
      macr_{std::min(config.initial_macr.bits_per_sec(), link_bps_)} {
  config_.validate();
  assert(link_bps_ > 0.0);
  sim_->schedule(config_.growth_interval,
                 sim::bind_member<&AprcController::on_growth_tick>(this));
}

void AprcController::on_cell_accepted(const atm::Cell&, std::size_t queue_len) {
  current_queue_len_ = queue_len;
}

void AprcController::on_growth_tick() {
  congested_ = current_queue_len_ > last_queue_len_;
  last_queue_len_ = current_queue_len_;
  sim_->schedule(config_.growth_interval,
                 sim::bind_member<&AprcController::on_growth_tick>(this));
}

void AprcController::reset() {
  macr_ = std::min(config_.initial_macr.bits_per_sec(), link_bps_);
  last_queue_len_ = 0;
  current_queue_len_ = 0;
  congested_ = false;
  note_rate_update(sim_->now());
}

void AprcController::warm_restart() {
  reset();
  warm_.begin();
}

void AprcController::on_forward_rm(atm::Cell& cell, std::size_t) {
  if (warm_.open() && warm_.sample(cell.ccr.bits_per_sec())) {
    if (const auto seed = warm_.close()) {
      macr_ = std::clamp(*seed, 0.0, link_bps_);
      warm_.record_seed(macr_);
    }
  } else {
    macr_ += config_.averaging * (cell.ccr.bits_per_sec() - macr_);
    macr_ = std::clamp(macr_, 0.0, link_bps_);
  }
  note_rate_update(sim_->now());
}

void AprcController::on_backward_rm(atm::Cell& cell, std::size_t queue_len) {
  if (queue_len > config_.very_congested_threshold) {
    cell.er = std::min(cell.er, sim::Rate::bps(config_.mrf * macr_));
    cell.ci = true;
  } else if (congested_ && cell.ccr.bits_per_sec() > config_.dpf * macr_) {
    cell.er = std::min(cell.er, sim::Rate::bps(config_.erf * macr_));
  }
}

}  // namespace phantom::baselines
