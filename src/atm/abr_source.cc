#include "atm/abr_source.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace phantom::atm {

std::string to_string(SourceBehavior b) {
  switch (b) {
    case SourceBehavior::kCompliant: return "compliant";
    case SourceBehavior::kGreedy: return "greedy";
    case SourceBehavior::kForging: return "forge";
    case SourceBehavior::kPartial: return "partial";
  }
  return "?";
}

AbrSource::AbrSource(sim::Simulator& sim, int vc, AbrParams params,
                     Link to_network)
    : sim_{&sim},
      vc_{vc},
      params_{params},
      link_{to_network},
      acr_{params.icr},
      last_granted_er_{std::max(params.icr, params.mcr)} {
  params_.validate();
}

void AbrSource::start(sim::Time at) {
  assert(!started_ && "start() may only be called once");
  started_ = true;
  sim_->schedule_at(at, [this] {
    active_ = true;
    last_brm_time_ = sim_->now();  // staleness is measured from startup
    set_acr(acr_);  // publish the initial rate
    if (!sending_) {
      sending_ = true;
      send_next_cell();
    }
    on_trm_check();
  });
}

Cell AbrSource::make_forward_rm() const {
  if (behavior_ == SourceBehavior::kForging) {
    // Understate CCR (so rate-learning baselines are steered low) and
    // inflate ER far beyond anything the source could claim honestly.
    // Switches only ever *reduce* ER, so nothing downstream repairs it.
    return Cell::forward_rm(vc_, params_.mcr, params_.pcr * 10.0);
  }
  return Cell::forward_rm(vc_, effective_rate(), params_.pcr);
}

void AbrSource::pre_frm_update() {
  // TM 4.0 source rules, applied at every FRM emission (in-rate and
  // out-of-rate alike — both keep the missing-RM count honest):
  //  * ADTF: an ACR above ICR that has heard no backward RM for ADTF is
  //    stale by definition; snap it to ICR.
  //  * Crm/CDF: once `crm` FRMs are unanswered, cut ACR by `cdf` per
  //    further FRM, never below max(MCR, min(ACR, ICR)) — a beaten-down
  //    source is not pushed lower than it already is.
  const bool obeys = behavior_ == SourceBehavior::kCompliant ||
                     behavior_ == SourceBehavior::kPartial;
  if (obeys && params_.feedback_decay) {
    const sim::Rate icr_floor = std::max(params_.icr, params_.mcr);
    if (sim_->now() - last_brm_time_ > params_.adtf && acr_ > icr_floor) {
      set_acr(icr_floor);
    } else if (frm_since_brm_ >= static_cast<std::uint64_t>(params_.crm)) {
      const sim::Rate floor = std::max(params_.mcr, std::min(acr_, params_.icr));
      const sim::Rate cut = acr_ * params_.cdf;
      if (cut < acr_) set_acr(std::max(floor, cut));
    }
  }
  ++frm_since_brm_;
}

sim::Rate AbrSource::stale_rate_envelope() const {
  if (!active_) return params_.pcr;  // an idle source transmits nothing
  const sim::Rate icr_floor = std::max(params_.icr, params_.mcr);
  // The ADTF backstop, with slack for the worst-case FRM spacing (the
  // decay is applied at FRM emission; the Trm ticker bounds the gap
  // between FRMs by 1.5 * Trm).
  if (sim_->now() - last_brm_time_ > params_.adtf + params_.trm * 2.0) {
    return icr_floor;
  }
  if (frm_since_brm_ < static_cast<std::uint64_t>(params_.crm)) {
    return params_.pcr;  // feedback not yet overdue
  }
  const auto overdue = frm_since_brm_ - static_cast<std::uint64_t>(params_.crm);
  const double decayed = last_granted_er_.bits_per_sec() *
                         std::pow(params_.cdf, static_cast<double>(overdue));
  return std::max(icr_floor, sim::Rate::bps(decayed));
}

void AbrSource::emit_forward_rm() {
  pre_frm_update();
  Cell cell = make_forward_rm();
  cell.sent_at = sim_->now();
  ++rm_sent_;
  last_rm_sent_ = sim_->now();
  link_.deliver(cell);
}

void AbrSource::emit_forged_backward_rm() {
  // A forger injects backward RM cells claiming the path is idle
  // (CI clear, huge ER). They are self-addressed: the ingress switch
  // runs them through the forward port's controller (poisoning any
  // state the algorithm keeps about backward traffic) and then routes
  // them straight back here, where apply_backward_rm's huge ER lets
  // the additive-increase clamp pass unhindered.
  Cell cell;
  cell.kind = CellKind::kBackwardRm;
  cell.vc = vc_;
  cell.ccr = params_.pcr;
  cell.er = params_.pcr * 10.0;
  cell.ci = false;
  cell.sent_at = sim_->now();
  ++rm_sent_;
  ++forged_brm_sent_;
  link_.deliver(cell);
}

void AbrSource::set_behavior(SourceBehavior behavior, double compliance) {
  behavior_ = behavior;
  compliance_ = std::clamp(compliance, 0.0, 1.0);
  switch (behavior_) {
    case SourceBehavior::kGreedy:
    case SourceBehavior::kForging:
      // A defector doesn't wait for permission: jump straight to PCR.
      set_acr(params_.pcr);
      break;
    case SourceBehavior::kCompliant:
      // A reformed defector must not keep its ill-gotten rate.
      set_acr(params_.icr);
      break;
    case SourceBehavior::kPartial:
      break;  // keeps adapting from wherever it is
  }
}

void AbrSource::on_trm_check() {
  // Out-of-rate FRM: keeps the feedback loop alive when the in-rate RM
  // spacing (Nrm cells at the current ACR) exceeds Trm — without it a
  // beaten-down source could wait seconds for permission to recover.
  if (active_ && sim_->now() - last_rm_sent_ >= params_.trm) {
    emit_forward_rm();
  }
  sim_->schedule(params_.trm / 2,
                 sim::bind_member<&AbrSource::on_trm_check>(this));
}

void AbrSource::set_active(bool active) {
  if (active == active_) return;
  active_ = active;
  if (!active_) {
    // The pacing chain notices `active_ == false` and stops; bump the
    // epoch so a stale event can never resume a deactivated source.
    ++epoch_;
    sending_ = false;
    return;
  }
  // Use-it-or-lose-it: restarting after a long idle period resets to ICR
  // so a stale (large) ACR cannot dump a burst into the network.
  const sim::Time idle = sim_->now() - last_send_;
  const sim::Time timeout =
      acr_.transmission_time(kCellBits * params_.nrm) * params_.tof;
  const bool obeys_uili = behavior_ == SourceBehavior::kCompliant ||
                          behavior_ == SourceBehavior::kPartial;
  if (obeys_uili && idle > timeout && acr_ > params_.icr) {
    set_acr(params_.icr);
  }
  if (started_ && !sending_) {
    sending_ = true;
    send_next_cell();
  }
}

void AbrSource::send_next_cell() {
  if (!active_) {
    sending_ = false;
    return;
  }
  // First cell of every Nrm-cell block is the in-rate forward RM cell,
  // so the control loop starts with the very first transmission. CCR
  // carries the rate cells actually leave at.
  Cell cell;
  if (cells_since_rm_ == 0) {
    pre_frm_update();  // may lower ACR; CCR below reflects the cut rate
    cell = make_forward_rm();
    ++rm_sent_;
    last_rm_sent_ = sim_->now();
    if (behavior_ == SourceBehavior::kForging) emit_forged_backward_rm();
  } else {
    cell = Cell::data(vc_);
    // Stamp the AAL5 frame boundary: in-rate RM cells interleave with a
    // frame's data cells on the wire, but the frame itself is data-only.
    cell.frame = frame_id_;
    cell.frame_len = static_cast<std::uint16_t>(params_.frame_cells);
    if (++frame_pos_ >= params_.frame_cells) {
      cell.eof = true;
      frame_pos_ = 0;
      ++frame_id_;
    }
    ++data_sent_;
  }
  cells_since_rm_ = (cells_since_rm_ + 1) % static_cast<std::uint64_t>(params_.nrm);
  cell.sent_at = sim_->now();
  last_send_ = sim_->now();
  link_.deliver(cell);

  // Pace off the post-decay rate: a source that just cut its ACR must
  // not ride out the old spacing for one more cell.
  const sim::Rate effective = effective_rate();
  auto pace = [this, epoch = epoch_] {
    if (epoch != epoch_) return;  // source was deactivated meanwhile
    send_next_cell();
  };
  static_assert(sim::EventQueue::Callback::fits_inline<decltype(pace)>);
  sim_->schedule(effective.transmission_time(kCellBits), std::move(pace));
}

void AbrSource::set_demand(sim::Rate demand) {
  assert(demand.bits_per_sec() > 0.0 && "demand must be positive");
  demand_ = demand;
}

void AbrSource::receive_cell(Cell cell) {
  if (cell.kind != CellKind::kBackwardRm || cell.vc != vc_) return;
  ++brm_received_;
  apply_backward_rm(cell);
}

void AbrSource::apply_backward_rm(const Cell& cell) {
  // Feedback is alive again, whatever it says: the missing-RM count and
  // the ADTF clock restart here.
  frm_since_brm_ = 0;
  last_brm_time_ = sim_->now();
  if (behavior_ == SourceBehavior::kGreedy ||
      behavior_ == SourceBehavior::kForging) {
    // Feedback? What feedback. Pin ACR at PCR regardless.
    last_granted_er_ = params_.pcr;
    set_acr(params_.pcr);
    return;
  }
  sim::Rate next = acr_;
  if (cell.ci) {
    next = next * (1.0 - static_cast<double>(params_.nrm) / params_.rdf);
  } else {
    next = next + params_.air_nrm;
  }
  sim::Rate er = cell.er;
  if (behavior_ == SourceBehavior::kPartial) {
    // Obeys the ER only partially: the effective cap is relaxed toward
    // PCR by (1 - compliance). compliance = 1 is TM 4.0; 0 ignores ER.
    er = std::min(
        sim::Rate::bps(er.bits_per_sec() +
                       (1.0 - compliance_) *
                           (params_.pcr.bits_per_sec() - er.bits_per_sec())),
        params_.pcr);
  }
  last_granted_er_ = std::min(er, params_.pcr);
  next = std::min(next, er);
  next = std::min(next, params_.pcr);
  next = std::max(next, params_.mcr);
  next = std::max(next, params_.tcr);  // keep probing even when beaten down
  set_acr(next);
}

void AbrSource::set_acr(sim::Rate r) {
  acr_ = r;
  if (acr_trace_ != nullptr) acr_trace_->record(sim_->now(), r.bits_per_sec());
  if (tap_) {
    tap_.record({.time = sim_->now(),
                 .kind = obs::EventKind::kSourceRate,
                 .vc = vc_,
                 .a = r.mbits_per_sec()});
  }
}

void AbrSource::register_metrics(obs::Registry& reg,
                                 const std::string& prefix) {
  reg.add_gauge({prefix + ".acr_mbps", "source.acr_mbps",
                 obs::MetricType::kGauge, "Mb/s", "AbrSource",
                 "current allowed cell rate"},
                [this] { return acr_.mbits_per_sec(); });
  reg.add_counter({prefix + ".data_cells_sent", "source.data_cells_sent",
                   obs::MetricType::kCounter, "cells", "AbrSource",
                   "data cells transmitted"},
                  [this] { return data_sent_; });
  reg.add_counter({prefix + ".frames_sent", "source.frames_sent",
                   obs::MetricType::kCounter, "frames", "AbrSource",
                   "complete AAL5 frames emitted"},
                  [this] { return static_cast<std::uint64_t>(frame_id_); });
  reg.add_counter({prefix + ".rm_cells_sent", "source.rm_cells_sent",
                   obs::MetricType::kCounter, "cells", "AbrSource",
                   "forward RM cells emitted"},
                  [this] { return rm_sent_; });
  reg.add_counter({prefix + ".brm_cells_received", "source.brm_cells_received",
                   obs::MetricType::kCounter, "cells", "AbrSource",
                   "backward RM cells received"},
                  [this] { return brm_received_; });
  reg.add_counter({prefix + ".forged_brm_sent", "source.forged_brm_sent",
                   obs::MetricType::kCounter, "cells", "AbrSource",
                   "self-addressed forged BRM cells emitted (kForging)"},
                  [this] { return forged_brm_sent_; });
  reg.add_gauge({prefix + ".frms_since_brm", "source.frms_since_brm",
                 obs::MetricType::kGauge, "cells", "AbrSource",
                 "FRMs sent since the last BRM (feedback-loss counter)"},
                [this] { return static_cast<double>(frm_since_brm_); });
}

}  // namespace phantom::atm
