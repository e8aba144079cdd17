#include "core/phantom_controller.h"

#include <algorithm>

#include "atm/cell.h"

namespace phantom::core {

PhantomController::PhantomController(sim::Simulator& sim,
                                     sim::Rate link_capacity,
                                     PhantomConfig config)
    : sim_{&sim}, config_{config}, filter_{link_capacity, config} {
  sim_->schedule(config_.interval,
                 sim::bind_member<&PhantomController::on_interval>(this));
}

void PhantomController::on_cell_accepted(const atm::Cell&, std::size_t) {
  ++arrived_cells_;
}

void PhantomController::on_cell_dropped(const atm::Cell&) {
  // Dropped cells still represent offered load: counting them keeps the
  // residual-bandwidth signal strongly negative during overload, which
  // is what drives MACR down fast enough to drain the queue.
  ++arrived_cells_;
}

void PhantomController::on_forward_rm(atm::Cell& cell, std::size_t) {
  // Phantom learns nothing from FRMs in steady state (constant space);
  // the only listener is the warm-start audit window after a restart.
  if (warm_.open() && warm_.sample(cell.ccr.bits_per_sec())) {
    close_warm_window();
  }
}

void PhantomController::close_warm_window() {
  if (const auto seed = warm_.close()) {
    filter_.seed(sim::Rate::bps(*seed));
    warm_.record_seed(filter_.macr().bits_per_sec());
    note_rate_update(sim_->now());
  }
}

void PhantomController::on_interval() {
  if (warm_.ripe()) close_warm_window();  // first tick after RM traffic
  const double cells = static_cast<double>(arrived_cells_);
  arrived_cells_ = 0;
  const sim::Rate offered = sim::Rate::bps(
      cells * static_cast<double>(atm::kCellBits) / config_.interval.seconds());
  over_subscribed_ = offered > filter_.target();
  filter_.update(offered);
  ++intervals_;
  note_rate_update(sim_->now());
  sim_->schedule(config_.interval,
                 sim::bind_member<&PhantomController::on_interval>(this));
}

void PhantomController::reset() {
  // Cold restart: MACR/DEV wiped, interval timer keeps ticking (the
  // restarted controller immediately resumes measuring). The boot MACR
  // is published, so the restart transient is visible in the figures.
  filter_.reset();
  arrived_cells_ = 0;
  over_subscribed_ = false;
  note_rate_update(sim_->now());
}

void PhantomController::warm_restart() {
  // Same wipe as a cold reset, but the next window of FRM traffic
  // re-seeds MACR at the rate sources are demonstrably sending at —
  // the restarted port resumes steering near the old operating point
  // instead of clamping everyone back to the boot constant.
  reset();
  warm_.begin();
}

void PhantomController::on_backward_rm(atm::Cell& cell, std::size_t) {
  if (config_.explicit_rate_mode) {
    cell.er = std::min(cell.er, filter_.macr());
  }
  // Binary mode conveys congestion via EFCI on data cells (latched by
  // the destination into the CI bit of returning RM cells), not here.
}

bool PhantomController::mark_efci(std::size_t queue_len) const {
  if (!config_.explicit_rate_mode && over_subscribed_) return true;
  return config_.efci_queue_threshold > 0 &&
         queue_len >= config_.efci_queue_threshold;
}

}  // namespace phantom::core
