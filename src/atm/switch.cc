#include "atm/switch.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace phantom::atm {

void ReaperConfig::validate() const {
  if (timeout <= sim::Time::zero())
    throw std::invalid_argument{"reaper timeout must be positive"};
  if (period <= sim::Time::zero())
    throw std::invalid_argument{"reaper period must be positive"};
}

void CacConfig::validate() const {
  if (mcr_utilization <= 0.0 || mcr_utilization > 1.0)
    throw std::invalid_argument{"mcr_utilization must be in (0, 1]"};
  if (per_vc_buffer_cells < 1)
    throw std::invalid_argument{"per_vc_buffer_cells must be at least 1"};
  if (max_vcs < 1)
    throw std::invalid_argument{"max_vcs must be at least 1"};
}

std::string to_string(AdmitVerdict v) {
  switch (v) {
    case AdmitVerdict::kAdmitted: return "admitted";
    case AdmitVerdict::kRefusedVcLimit: return "vc-limit";
    case AdmitVerdict::kRefusedMcrBudget: return "mcr-budget";
    case AdmitVerdict::kRefusedBufferHeadroom: return "buffer-headroom";
    case AdmitVerdict::kRefusedPressure: return "pressure";
  }
  return "?";
}

std::size_t Switch::add_port(sim::Rate rate, std::size_t queue_limit,
                             Link link,
                             std::unique_ptr<PortController> controller,
                             QueueDiscipline discipline) {
  ports_.push_back(std::make_unique<OutputPort>(
      *sim_, rate, queue_limit, link, std::move(controller), discipline));
  mcr_booked_.push_back(sim::Rate::zero());
  if (buffer_mgr_) {
    ports_.back()->attach_buffer_manager(buffer_mgr_.get(),
                                         buffer_mgr_->register_port());
  }
  if (event_log_ != nullptr) {
    ports_.back()->set_event_log(event_log_, obs_node_,
                                 static_cast<int>(ports_.size() - 1));
  }
  return ports_.size() - 1;
}

void Switch::set_event_log(obs::EventLog* log, int node) {
  event_log_ = log;
  obs_node_ = static_cast<std::int16_t>(node);
  if (log != nullptr) log->set_node_name(obs_node_, name_);
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i]->set_event_log(log, node, static_cast<int>(i));
  }
}

void Switch::record_rm_event(obs::EventKind kind, const Cell& cell,
                             std::size_t forward_port) {
  if constexpr (obs::kObsEnabled) {
    if (event_log_ == nullptr) return;
    obs::Event e;
    e.time = sim_->now();
    e.kind = kind;
    e.node = obs_node_;
    e.port = static_cast<std::int16_t>(forward_port);
    e.vc = cell.vc;
    e.a = cell.er.mbits_per_sec();
    e.b = cell.ccr.mbits_per_sec();
    e.c = ports_[forward_port]->controller().fair_share().mbits_per_sec();
    event_log_->record(e);
  } else {
    (void)kind;
    (void)cell;
    (void)forward_port;
  }
}

void Switch::record_policer_event(const Cell& cell, std::uint8_t verdict) {
  if constexpr (obs::kObsEnabled) {
    if (event_log_ == nullptr) return;
    obs::Event e;
    e.time = sim_->now();
    e.kind = obs::EventKind::kPolicerVerdict;
    e.detail = verdict;
    e.node = obs_node_;
    e.vc = cell.vc;
    event_log_->record(e);
  } else {
    (void)cell;
    (void)verdict;
  }
}

void Switch::record_cac_refusal(int vc, sim::Rate mcr, AdmitVerdict verdict) {
  if constexpr (obs::kObsEnabled) {
    if (event_log_ == nullptr) return;
    obs::Event e;
    e.time = sim_->now();
    e.kind = obs::EventKind::kCacRefusal;
    e.detail = static_cast<std::uint8_t>(verdict);
    e.node = obs_node_;
    e.vc = vc;
    e.a = mcr.mbits_per_sec();
    event_log_->record(e);
  } else {
    (void)vc;
    (void)mcr;
    (void)verdict;
  }
}

void Switch::enable_buffer_management(BufferConfig config) {
  config.validate();
  buffer_mgr_ = std::make_unique<BufferManager>(config);
  for (auto& port : ports_) {
    port->attach_buffer_manager(buffer_mgr_.get(),
                                buffer_mgr_->register_port());
  }
}

void Switch::enable_admission_control(CacConfig config) {
  config.validate();
  cac_config_ = config;
  cac_enabled_ = true;
}

void Switch::record_admission(int vc, sim::Rate mcr,
                              std::size_t forward_port) {
  admitted_[vc] = Admission{mcr, forward_port};
  mcr_booked_.at(forward_port) += mcr;
  if (buffer_mgr_) buffer_mgr_->set_vc_mcr(vc, mcr, sim_->now());
}

bool Switch::release_admission(int vc) {
  const Admission* a = admitted_.find(vc);
  if (a == nullptr) return false;
  sim::Rate& booked = mcr_booked_.at(a->forward_port);
  booked -= a->mcr;
  // Guard against float drift pushing a fully-released booking negative.
  if (booked < sim::Rate::zero()) booked = sim::Rate::zero();
  admitted_.erase(vc);
  return true;
}

AdmitVerdict Switch::admit_vc(int vc, sim::Rate mcr,
                              std::size_t forward_port) {
  if (forward_port >= ports_.size())
    throw std::out_of_range{"admit_vc: port index out of range"};
  if (admitted_.contains(vc))
    throw std::invalid_argument{"admit_vc: VC already admitted on " + name_};
  if (!cac_enabled_) {
    // CAC off: everything is admitted, but the booking is still kept so
    // MCR protection and eviction work, and so arming CAC later sees
    // the true commitment.
    record_admission(vc, mcr, forward_port);
    return AdmitVerdict::kAdmitted;
  }
  // Degradation ladder, first rung: a switch already shedding admitted
  // traffic must not take on more commitments, whatever the books say.
  if (buffer_mgr_ &&
      buffer_mgr_->level() >= DegradationLevel::kShedding) {
    ++cac_counters_.refused_pressure;
    record_cac_refusal(vc, mcr, AdmitVerdict::kRefusedPressure);
    return AdmitVerdict::kRefusedPressure;
  }
  if (admitted_.size() >= cac_config_.max_vcs) {
    ++cac_counters_.refused_vc_limit;
    record_cac_refusal(vc, mcr, AdmitVerdict::kRefusedVcLimit);
    return AdmitVerdict::kRefusedVcLimit;
  }
  const sim::Rate booked = mcr_booked_.at(forward_port);
  const sim::Rate limit =
      ports_[forward_port]->rate() * cac_config_.mcr_utilization;
  if (booked + mcr > limit) {
    ++cac_counters_.refused_mcr_budget;
    record_cac_refusal(vc, mcr, AdmitVerdict::kRefusedMcrBudget);
    return AdmitVerdict::kRefusedMcrBudget;
  }
  if (buffer_mgr_) {
    const std::size_t needed =
        (admitted_.size() + 1) * cac_config_.per_vc_buffer_cells;
    if (needed > buffer_mgr_->effective_budget()) {
      ++cac_counters_.refused_buffer;
      record_cac_refusal(vc, mcr, AdmitVerdict::kRefusedBufferHeadroom);
      return AdmitVerdict::kRefusedBufferHeadroom;
    }
  }
  ++cac_counters_.admitted;
  record_admission(vc, mcr, forward_port);
  return AdmitVerdict::kAdmitted;
}

void Switch::force_admit_vc(int vc, sim::Rate mcr,
                            std::size_t forward_port) {
  if (forward_port >= ports_.size())
    throw std::out_of_range{"force_admit_vc: port index out of range"};
  if (admitted_.contains(vc)) return;  // idempotent grandfathering
  record_admission(vc, mcr, forward_port);
}

bool Switch::unroute_vc(int vc) {
  evict_vc(vc);  // admission booking, policer state, activity stamp
  return routes_.erase(vc);
}

void Switch::route_vc(int vc, std::size_t forward_port,
                      std::size_t backward_port) {
  if (forward_port >= ports_.size() || backward_port >= ports_.size()) {
    throw std::out_of_range{"route_vc: port index out of range"};
  }
  if (routes_.contains(vc)) {
    throw std::invalid_argument{"route_vc: VC already routed on " + name_};
  }
  routes_[vc] = Route{forward_port, backward_port};
}

void Switch::enable_policing(PolicerConfig config) {
  policer_ = std::make_unique<Policer>(config);
}

void Switch::enable_reaping(ReaperConfig config) {
  config.validate();
  reaper_config_ = config;
  if (!reaping_) {
    reaping_ = true;
    sim_->schedule(reaper_config_.period, [this] { on_reap_tick(); });
  }
}

void Switch::on_reap_tick() {
  // The table walks VCs in id order, so eviction order is fixed and
  // runs stay bit-reproducible.
  const sim::Time now = sim_->now();
  last_activity_.for_each([&](int vc, sim::Time last) {
    if (now - last > reaper_config_.timeout) evict_vc(vc);
  });
  sim_->schedule(reaper_config_.period, [this] { on_reap_tick(); });
}

bool Switch::evict_vc(int vc) {
  const bool had_activity = last_activity_.erase(vc);
  const bool had_policer_state = policer_ && policer_->evict_vc(vc);
  const bool had_admission = release_admission(vc);
  const bool had_buffer_state = buffer_mgr_ && buffer_mgr_->evict_vc(vc);
  if (!had_activity && !had_policer_state && !had_admission &&
      !had_buffer_state)
    return false;
  ++vcs_reaped_;
  // Both directions' controllers get the notification: session-count
  // and per-VC state can live on either side of the route.
  if (const Route* route = routes_.find(vc)) {
    ports_[route->forward_port]->controller().vc_expired(vc);
    ports_[route->backward_port]->controller().vc_expired(vc);
  }
  return true;
}

void Switch::register_metrics(obs::Registry& reg, const std::string& prefix) {
  reg.add_counter({prefix + ".unrouted_cells", "switch.unrouted_cells",
                   obs::MetricType::kCounter, "cells", "Switch",
                   "cells that arrived for a VC with no route"},
                  [this] { return unrouted_; });
  reg.add_counter({prefix + ".rm_cells_sanitized", "switch.rm_cells_sanitized",
                   obs::MetricType::kCounter, "cells", "Switch",
                   "RM cells whose ER/CCR fields were clamped on ingest"},
                  [this] { return rm_sanitized_; });
  reg.add_counter({prefix + ".vcs_reaped", "switch.vcs_reaped",
                   obs::MetricType::kCounter, "vcs", "Switch",
                   "VCs evicted (reaper sweeps + explicit teardowns)"},
                  [this] { return vcs_reaped_; });
  reg.add_gauge({prefix + ".active_vcs", "switch.active_vcs",
                 obs::MetricType::kGauge, "vcs", "Switch",
                 "VCs with a live activity timestamp"},
                [this] { return static_cast<double>(active_vcs()); });
  reg.add_gauge({prefix + ".admitted_vcs", "switch.admitted_vcs",
                 obs::MetricType::kGauge, "vcs", "Switch",
                 "VCs currently holding an admission record"},
                [this] { return static_cast<double>(admitted_.size()); });
  reg.add_counter({prefix + ".cac.admitted", "switch.cac.admitted",
                   obs::MetricType::kCounter, "setups", "Switch",
                   "VC setups admitted by CAC"},
                  [this] { return cac_counters_.admitted; });
  reg.add_counter({prefix + ".cac.refused_vc_limit",
                   "switch.cac.refused_vc_limit", obs::MetricType::kCounter,
                   "setups", "Switch", "setups refused: VC table at max_vcs"},
                  [this] { return cac_counters_.refused_vc_limit; });
  reg.add_counter(
      {prefix + ".cac.refused_mcr_budget", "switch.cac.refused_mcr_budget",
       obs::MetricType::kCounter, "setups", "Switch",
       "setups refused: MCR sum would exceed the booking limit"},
      [this] { return cac_counters_.refused_mcr_budget; });
  reg.add_counter({prefix + ".cac.refused_buffer", "switch.cac.refused_buffer",
                   obs::MetricType::kCounter, "setups", "Switch",
                   "setups refused: cell memory cannot back another VC"},
                  [this] { return cac_counters_.refused_buffer; });
  reg.add_counter({prefix + ".cac.refused_pressure",
                   "switch.cac.refused_pressure", obs::MetricType::kCounter,
                   "setups", "Switch",
                   "setups refused: switch already shedding"},
                  [this] { return cac_counters_.refused_pressure; });
  if (policer_) policer_->register_metrics(reg, prefix + ".policer");
  if (buffer_mgr_) buffer_mgr_->register_metrics(reg, prefix + ".buffers");
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i]->register_metrics(reg, prefix + ".port" + std::to_string(i));
  }
}

void Switch::sanitize_rm(Cell& cell, sim::Rate link_rate) {
  // A switch must never let a hostile RM field reach controller state:
  // EPRCA-family algorithms *learn* from CCR, and NaN survives every
  // std::min along a feedback chain. ER claims above the physical link
  // rate are meaningless (the port cannot serve them) and are exactly
  // what a forger inflates; claims below zero (or NaN) would wedge the
  // source's ACR clamp.
  bool touched = false;
  const double er = cell.er.bits_per_sec();
  if (std::isnan(er) || er > link_rate.bits_per_sec()) {
    cell.er = link_rate;
    touched = true;
  } else if (er < 0.0) {
    cell.er = sim::Rate::zero();
    touched = true;
  }
  const double ccr = cell.ccr.bits_per_sec();
  if (std::isnan(ccr) || ccr < 0.0) {
    cell.ccr = sim::Rate::zero();
    touched = true;
  } else if (ccr > link_rate.bits_per_sec()) {
    cell.ccr = link_rate;
    touched = true;
  }
  if (touched) ++rm_sanitized_;
}

void Switch::receive_cell(Cell cell) {
  const Route* found = routes_.find(cell.vc);
  if (found == nullptr) {
    ++unrouted_;
    return;
  }
  const Route route = *found;
  if (reaping_) last_activity_[cell.vc] = sim_->now();
  OutputPort& fwd = *ports_[route.forward_port];
  // ER/CCR refer to the forward direction either way, so the forward
  // link's capacity is the sanity cap for both cell directions.
  if (cell.is_rm()) sanitize_rm(cell, fwd.rate());
  if (policer_ && cell.kind != CellKind::kBackwardRm) {
    switch (policer_->check(cell, fwd.controller().fair_share(), sim_->now())) {
      case Policer::Verdict::kPass:
        break;
      case Policer::Verdict::kTag:
        cell.clp = true;
        record_policer_event(cell, 1);
        break;
      case Policer::Verdict::kDrop:
        record_policer_event(cell, 2);
        // Discarded at ingress, before the port queue: enforcement
        // drops do NOT feed the controller's offered-load measurement,
        // so a policed violator stops inflating the apparent session
        // count (that is the whole point of dropping here and not at
        // the queue).
        return;
    }
  }
  switch (cell.kind) {
    case CellKind::kData:
      fwd.send(cell);
      break;
    case CellKind::kForwardRm:
      fwd.controller().on_forward_rm(cell, fwd.queue_length());
      record_rm_event(obs::EventKind::kRmForward, cell, route.forward_port);
      fwd.send(cell);
      break;
    case CellKind::kBackwardRm:
      // Feedback for the forward direction is written here, then the
      // cell continues along the reverse path. The trace records the
      // post-stamp ER/CCR — what the source will actually be told.
      fwd.controller().on_backward_rm(cell, fwd.queue_length());
      record_rm_event(obs::EventKind::kRmBackward, cell, route.forward_port);
      ports_[route.backward_port]->send(cell);
      break;
  }
}

}  // namespace phantom::atm
