#include "baselines/erica.h"

#include <algorithm>
#include <cassert>

#include "atm/cell.h"

namespace phantom::baselines {

EricaController::EricaController(sim::Simulator& sim, sim::Rate link_capacity,
                                 EricaConfig config)
    : sim_{&sim},
      config_{config},
      target_bps_{link_capacity.bits_per_sec() * config.utilization},
      fair_share_{std::min(config.initial_fair_share.bits_per_sec(),
                           target_bps_)} {
  config_.validate();
  assert(link_capacity.bits_per_sec() > 0.0);
  sim_->schedule(config_.interval,
                 sim::bind_member<&EricaController::on_interval>(this));
}

void EricaController::on_cell_accepted(const atm::Cell&, std::size_t) {
  ++arrived_cells_;
}

void EricaController::on_cell_dropped(const atm::Cell&) { ++arrived_cells_; }

void EricaController::on_forward_rm(atm::Cell& cell, std::size_t) {
  VcState& vc = vcs_[cell.vc];
  vc.ccr_bps = cell.ccr.bits_per_sec();
  vc.last_seen_interval = interval_index_;
  if (warm_.open() && warm_.sample(cell.ccr.bits_per_sec())) {
    close_warm_window();
  }
}

void EricaController::close_warm_window() {
  // The per-VC table has been refilling since the restart (every FRM
  // above re-registers its VC); the audit window additionally seeds the
  // advertised share at the mean observed CCR so the first BRMs out of
  // the restarted port do not clamp everyone to the boot constant.
  if (const auto seed = warm_.close()) {
    fair_share_ = std::clamp(*seed, 0.0, target_bps_);
    warm_.record_seed(fair_share_);
    note_rate_update(sim_->now());
  }
}

void EricaController::warm_restart() {
  reset();
  warm_.begin();
}

void EricaController::vc_expired(int vc) { vcs_.erase(vc); }

void EricaController::reset() {
  // ERICA's per-VC table is exactly the state the constant-space class
  // avoids; a restart here loses every learned CCR, not just a filter.
  vcs_.clear();
  fair_share_ =
      std::min(config_.initial_fair_share.bits_per_sec(), target_bps_);
  load_factor_ = 0.0;
  arrived_cells_ = 0;
  note_rate_update(sim_->now());
}

void EricaController::on_interval() {
  if (warm_.ripe()) close_warm_window();  // first tick after RM traffic
  const double input_bps = static_cast<double>(arrived_cells_) *
                           static_cast<double>(atm::kCellBits) /
                           config_.interval.seconds();
  arrived_cells_ = 0;
  ++interval_index_;

  // Expire idle VCs so departures release their share.
  const auto timeout =
      static_cast<std::uint64_t>(config_.activity_timeout_intervals);
  for (auto it = vcs_.begin(); it != vcs_.end();) {
    if (interval_index_ - it->second.last_seen_interval > timeout) {
      it = vcs_.erase(it);
    } else {
      ++it;
    }
  }

  load_factor_ = input_bps / target_bps_;
  if (!vcs_.empty()) {
    fair_share_ = target_bps_ / static_cast<double>(vcs_.size());
  }
  note_rate_update(sim_->now());
  sim_->schedule(config_.interval,
                 sim::bind_member<&EricaController::on_interval>(this));
}

void EricaController::on_backward_rm(atm::Cell& cell, std::size_t) {
  const auto it = vcs_.find(cell.vc);
  const double ccr = it == vcs_.end() ? 0.0 : it->second.ccr_bps;
  double er = fair_share_;
  if (load_factor_ > 0.0) {
    // A VC already above the overload-scaled share keeps that much,
    // which lets under-share VCs catch up without collapsing anyone.
    er = std::max(er, ccr / std::max(load_factor_, 1e-9));
  }
  er = std::min(er, target_bps_);
  cell.er = std::min(cell.er, sim::Rate::bps(er));
}

}  // namespace phantom::baselines
