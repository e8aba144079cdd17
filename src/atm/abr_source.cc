#include "atm/abr_source.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

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
  interval_ = rate().transmission_time(kCellBits);
  assert(link_.state()->writer == nullptr && "one source per access link");
  link_.state()->writer = this;
}

AbrSource::~AbrSource() { link_.state()->writer = nullptr; }

void LinkState::catch_up_writer() const { writer->catch_up(); }

void AbrSource::start(sim::Time at) {
  assert(!started_ && "start() may only be called once");
  started_ = true;
  sim_->schedule_at(at, [this] {
    catch_up();
    active_ = true;
    last_brm_time_ = sim_->now();  // staleness is measured from startup
    set_acr(acr_, sim_->now());  // publish the initial rate
    if (!pacing_) resume();
    on_trm_check();
  });
}

void AbrSource::catch_up() const {
  // A send at t has run once a key at t ordering after every other
  // event there would have.
  constexpr std::uint64_t kLast = std::numeric_limits<std::uint64_t>::max();
  while (pacing_ && sim_->has_run({next_send_, kLast})) {
    const_cast<AbrSource*>(this)->send_due();
  }
}

void AbrSource::resume() {
  // A send made by an event of its own, now: with nothing filed ahead of
  // it, its arrival key is drawn here.
  pacing_ = true;
  next_send_ = sim_->now();
  const bool idle = in_flight_.empty();
  send_due();
  if (idle) file_next();
}

void AbrSource::send_due() {
  // First cell of every Nrm-cell block is the in-rate forward RM cell,
  // so the control loop starts with the very first transmission. CCR
  // carries the rate cells actually leave at.
  const sim::Time at = next_send_;
  Cell cell;
  if (cells_since_rm_ == 0) {
    cell = forward_rm(at);
    if (behavior_ == SourceBehavior::kForging) put(forged_backward_rm(), at);
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
  if (++cells_since_rm_ == static_cast<std::uint64_t>(params_.nrm)) {
    cells_since_rm_ = 0;
  }
  last_send_ = at;
  put(cell, at);
  // Pace off the post-decay rate: a source that just cut its ACR must
  // not ride out the old spacing for one more cell.
  next_send_ = at + interval_;
}

void AbrSource::put(Cell cell, sim::Time at) {
  LinkState& link = *link_.state();
  if (link.down || link.draws_random()) {
    // The source judges no cell: a fault drawn at a send would move
    // with every read that runs it.
    throw std::logic_error{"AbrSource: the access link has a fault model"};
  }
  cell.sent_at = at;
  link.count_written();
  in_flight_.push_back(cell);
}

void AbrSource::file_next() {
  sim::Time at;
  if (!in_flight_.empty()) {
    at = in_flight_.front().sent_at;
  } else if (pacing_) {
    at = next_send_;
  } else {
    arrival_ = {};
    return;
  }
  arrival_ = sim_->schedule_at(at + link_.delay(),
                               sim::bind_member<&AbrSource::arrive>(this));
}

void AbrSource::arrive() {
  const sim::Time now = sim_->now();
  while (pacing_ && next_send_ < now) send_due();
  if (in_flight_.empty()) {
    // Only a zero-delay link gets here: the cell is sent at this very
    // instant, after every other event at it, so it arrives from an
    // event filed now, behind every event pending here.
    assert(link_.delay().is_zero() && pacing_ && next_send_ == now);
    arrival_ = sim_->schedule(sim::Time::zero(),
                              sim::bind_member<&AbrSource::arrive_last>(this));
    return;
  }
  hand_over();
}

void AbrSource::arrive_last() {
  send_due();
  hand_over();
}

void AbrSource::hand_over() {
  // The next cell's key is drawn before this one reaches the switch, so
  // it orders before anything the switch files at this instant.
  const Cell cell = in_flight_.front();
  in_flight_.pop_front();
  file_next();
  link_.state()->arrive(cell);
}

Cell AbrSource::make_forward_rm() const {
  if (behavior_ == SourceBehavior::kForging) {
    // Understate CCR (so rate-learning baselines are steered low) and
    // inflate ER far beyond anything the source could claim honestly.
    // Switches only ever *reduce* ER, so nothing downstream repairs it.
    return Cell::forward_rm(vc_, params_.mcr, params_.pcr * 10.0);
  }
  return Cell::forward_rm(vc_, rate(), params_.pcr);
}

Cell AbrSource::forward_rm(sim::Time at) {
  pre_frm_update(at);  // may lower ACR; CCR below reflects the cut rate
  Cell cell = make_forward_rm();
  ++rm_sent_;
  last_rm_sent_ = at;
  return cell;
}

void AbrSource::pre_frm_update(sim::Time at) {
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
    if (at - last_brm_time_ > params_.adtf && acr_ > icr_floor) {
      set_acr(icr_floor, at);
    } else if (frm_since_brm_ >= static_cast<std::uint64_t>(params_.crm)) {
      const sim::Rate floor = std::max(params_.mcr, std::min(acr_, params_.icr));
      const sim::Rate cut = acr_ * params_.cdf;
      if (cut < acr_) set_acr(std::max(floor, cut), at);
    }
  }
  ++frm_since_brm_;
}

sim::Rate AbrSource::stale_rate_envelope() const {
  catch_up();
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

Cell AbrSource::forged_backward_rm() {
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
  ++rm_sent_;
  ++forged_brm_sent_;
  return cell;
}

void AbrSource::set_behavior(SourceBehavior behavior, double compliance) {
  catch_up();
  behavior_ = behavior;
  compliance_ = std::clamp(compliance, 0.0, 1.0);
  switch (behavior_) {
    case SourceBehavior::kGreedy:
    case SourceBehavior::kForging:
      // A defector doesn't wait for permission: jump straight to PCR.
      set_acr(params_.pcr, sim_->now());
      break;
    case SourceBehavior::kCompliant:
      // A reformed defector must not keep its ill-gotten rate.
      set_acr(params_.icr, sim_->now());
      break;
    case SourceBehavior::kPartial:
      break;  // keeps adapting from wherever it is
  }
}

void AbrSource::on_trm_check() {
  // Out-of-rate FRM: keeps the feedback loop alive when the in-rate RM
  // spacing (Nrm cells at the current ACR) exceeds Trm — without it a
  // beaten-down source could wait seconds for permission to recover.
  catch_up();
  const sim::Time now = sim_->now();
  if (active_ && now - last_rm_sent_ >= params_.trm) {
    // It goes ahead of a send due now. With no cell in flight, the filed
    // arrival is that of the next send's cell, which this one overtakes.
    const bool overtakes = in_flight_.empty();
    put(forward_rm(now), now);
    if (overtakes) {
      sim_->cancel(arrival_);
      file_next();
    }
  }
  sim_->schedule(params_.trm / 2,
                 sim::bind_member<&AbrSource::on_trm_check>(this));
}

void AbrSource::set_active(bool active) {
  catch_up();
  if (active == active_) return;
  active_ = active;
  if (!active_) {
    // No more sends; an arrival filed for the next send's cell goes.
    pacing_ = false;
    if (in_flight_.empty()) {
      sim_->cancel(arrival_);
      arrival_ = {};
    }
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
    set_acr(params_.icr, sim_->now());
  }
  if (started_ && !pacing_) resume();
}

void AbrSource::set_demand(sim::Rate demand) {
  assert(demand.bits_per_sec() > 0.0 && "demand must be positive");
  catch_up();
  demand_ = demand;
  interval_ = rate().transmission_time(kCellBits);
}

void AbrSource::receive_cell(Cell cell) {
  if (cell.kind != CellKind::kBackwardRm || cell.vc != vc_) return;
  catch_up();
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
    set_acr(params_.pcr, sim_->now());
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
  set_acr(next, sim_->now());
}

void AbrSource::set_acr(sim::Rate r, sim::Time at) {
  acr_ = r;
  interval_ = rate().transmission_time(kCellBits);
  if (acr_trace_ != nullptr) acr_trace_->record(at, r.bits_per_sec());
  if (tap_) {
    tap_.record({.time = at,
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
                [this] { return acr().mbits_per_sec(); });
  reg.add_counter({prefix + ".data_cells_sent", "source.data_cells_sent",
                   obs::MetricType::kCounter, "cells", "AbrSource",
                   "data cells transmitted"},
                  [this] { return data_cells_sent(); });
  reg.add_counter({prefix + ".frames_sent", "source.frames_sent",
                   obs::MetricType::kCounter, "frames", "AbrSource",
                   "complete AAL5 frames emitted"},
                  [this] {
                    catch_up();
                    return static_cast<std::uint64_t>(frame_id_);
                  });
  reg.add_counter({prefix + ".rm_cells_sent", "source.rm_cells_sent",
                   obs::MetricType::kCounter, "cells", "AbrSource",
                   "forward RM cells emitted"},
                  [this] { return rm_cells_sent(); });
  reg.add_counter({prefix + ".brm_cells_received", "source.brm_cells_received",
                   obs::MetricType::kCounter, "cells", "AbrSource",
                   "backward RM cells received"},
                  [this] { return brm_received_; });
  reg.add_counter({prefix + ".forged_brm_sent", "source.forged_brm_sent",
                   obs::MetricType::kCounter, "cells", "AbrSource",
                   "self-addressed forged BRM cells emitted (kForging)"},
                  [this] { return forged_brm_sent(); });
  reg.add_gauge({prefix + ".frms_since_brm", "source.frms_since_brm",
                 obs::MetricType::kGauge, "cells", "AbrSource",
                 "FRMs sent since the last BRM (feedback-loss counter)"},
                [this] { return static_cast<double>(frms_since_brm()); });
}

}  // namespace phantom::atm
