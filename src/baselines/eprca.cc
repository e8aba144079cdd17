#include "baselines/eprca.h"

#include <algorithm>
#include <cassert>

namespace phantom::baselines {

EprcaController::EprcaController(sim::Simulator& sim, sim::Rate link_capacity,
                                 EprcaConfig config)
    : sim_{&sim},
      config_{config},
      link_bps_{link_capacity.bits_per_sec()},
      macr_{std::min(config.initial_macr.bits_per_sec(), link_bps_)} {
  config_.validate();
  assert(link_bps_ > 0.0);
}

void EprcaController::on_forward_rm(atm::Cell& cell, std::size_t) {
  // After a warm restart, the first window of CCRs replaces the slow
  // 1/16-gain crawl from the boot constant with a one-shot seed at the
  // mean observed sending rate.
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

void EprcaController::reset() {
  macr_ = std::min(config_.initial_macr.bits_per_sec(), link_bps_);
  note_rate_update(sim_->now());
}

void EprcaController::warm_restart() {
  reset();
  warm_.begin();
}

void EprcaController::on_backward_rm(atm::Cell& cell, std::size_t queue_len) {
  if (queue_len > config_.very_congested_threshold) {
    cell.er = std::min(cell.er, sim::Rate::bps(config_.mrf * macr_));
    cell.ci = true;  // beats down every session indiscriminately
  } else if (queue_len > config_.queue_threshold &&
             cell.ccr.bits_per_sec() > config_.dpf * macr_) {
    cell.er = std::min(cell.er, sim::Rate::bps(config_.erf * macr_));
  }
}

}  // namespace phantom::baselines
