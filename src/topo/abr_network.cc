#include "topo/abr_network.h"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "atm/link.h"

namespace phantom::topo {

using atm::Link;

AbrNetwork::AbrNetwork(sim::Simulator& sim, ControllerFactory factory)
    : sim_{&sim}, factory_{std::move(factory)} {
  if (!factory_) {
    throw std::invalid_argument{"AbrNetwork requires a controller factory"};
  }
}

AbrNetwork::SwitchId AbrNetwork::add_switch(std::string name) {
  switches_.push_back(std::make_unique<atm::Switch>(*sim_, std::move(name)));
  const SwitchId id = switches_.size() - 1;
  if (event_log_ != nullptr) {
    switches_.back()->set_event_log(event_log_, static_cast<int>(id));
  }
  return id;
}

void AbrNetwork::attach_event_log(obs::EventLog* log) {
  event_log_ = log;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    switches_[i]->set_event_log(log, static_cast<int>(i));
  }
  for (auto& source : sources_) source->set_event_log(log);
}

void AbrNetwork::register_metrics(obs::Registry& reg) {
  std::unordered_map<std::string, int> seen;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    std::string prefix = switches_[i]->name();
    if (seen[prefix]++ > 0) prefix += "#" + std::to_string(i);
    switches_[i]->register_metrics(reg, prefix);
  }
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    sources_[s]->register_metrics(reg, "session" + std::to_string(s));
  }
}

std::size_t AbrNetwork::add_port(SwitchId at, atm::CellSink& sink,
                                 sim::Rate rate, sim::Time delay,
                                 std::size_t queue_limit, bool controlled,
                                 double loss,
                                 atm::QueueDiscipline discipline) {
  auto controller = controlled
                        ? factory_(*sim_, rate)
                        : std::unique_ptr<atm::PortController>{};
  return switches_.at(at)->add_port(rate, queue_limit,
                                    Link{*sim_, delay, sink, loss},
                                    std::move(controller), discipline);
}

AbrNetwork::TrunkId AbrNetwork::add_trunk(SwitchId from, SwitchId to,
                                          TrunkOptions options) {
  if (from >= switches_.size() || to >= switches_.size() || from == to) {
    throw std::out_of_range{"add_trunk: bad switch ids"};
  }
  Trunk t;
  t.from = from;
  t.to = to;
  t.controlled = options.controlled;
  t.rate = options.rate;
  t.forward_port = add_port(from, *switches_[to], options.rate, options.delay,
                            options.queue_limit, options.controlled,
                            options.loss, options.discipline);
  // Reverse direction carries only returning RM cells; never controlled,
  // but it shares the physical medium's loss rate.
  t.reverse_port = add_port(to, *switches_[from], options.rate, options.delay,
                            options.queue_limit, /*controlled=*/false,
                            options.loss);
  trunks_.push_back(t);
  return trunks_.size() - 1;
}

AbrNetwork::DestId AbrNetwork::add_destination(SwitchId at,
                                               TrunkOptions options) {
  if (at >= switches_.size()) {
    throw std::out_of_range{"add_destination: bad switch id"};
  }
  Destination d;
  d.at = at;
  d.controlled = options.controlled;
  d.rate = options.rate;
  d.endpoint = std::make_unique<atm::AbrDestination>(
      *sim_, Link{*sim_, options.delay, *switches_[at]});
  d.port = add_port(at, *d.endpoint, options.rate, options.delay,
                    options.queue_limit, options.controlled, options.loss,
                    options.discipline);
  // A FIFO port's data cells reach the destination without an arrival
  // event; a strict-priority port re-keys waiting cells, so its cells
  // keep their events.
  if (options.discipline == atm::QueueDiscipline::kFifo) {
    d.endpoint->register_input(
        *switches_[at]->port(d.port).link().state());
  }
  dests_.push_back(std::move(d));
  return dests_.size() - 1;
}

void AbrNetwork::validate_path(SwitchId ingress,
                               const std::vector<TrunkId>& path,
                               DestId dest) const {
  if (ingress >= switches_.size()) {
    throw std::out_of_range{"add_session: bad ingress switch"};
  }
  if (dest >= dests_.size()) {
    throw std::out_of_range{"add_session: bad destination"};
  }
  // Path connectivity: head at ingress, tail at the destination's switch.
  SwitchId cursor = ingress;
  for (const TrunkId t : path) {
    if (t >= trunks_.size() || trunks_[t].from != cursor) {
      throw std::invalid_argument{"add_session: path is not connected"};
    }
    cursor = trunks_[t].to;
  }
  if (dests_[dest].at != cursor) {
    throw std::invalid_argument{
        "add_session: destination does not hang off the path's last switch"};
  }
}

AbrNetwork::SessionId AbrNetwork::add_session(SwitchId ingress,
                                              const std::vector<TrunkId>& path,
                                              DestId dest,
                                              atm::AbrParams params,
                                              sim::Time access_delay) {
  validate_path(ingress, path, dest);
  const int vc = next_vc_++;
  auto source = std::make_unique<atm::AbrSource>(
      *sim_, vc, params, Link{*sim_, access_delay, *switches_[ingress]});

  // Backward port at the ingress switch delivering BRM cells to the
  // source. One per session keeps the wiring simple; its load is only
  // RM cells.
  const std::size_t to_source_port =
      add_port(ingress, *source, params.pcr, access_delay,
               /*queue_limit=*/20'000, /*controlled=*/false, 0.0);

  // Forward/backward routes hop by hop. At each switch the backward
  // port leads one hop back toward the source.
  std::size_t backward = to_source_port;
  SwitchId cursor = ingress;
  for (const TrunkId t : path) {
    switches_[cursor]->route_vc(vc, trunks_[t].forward_port, backward);
    backward = trunks_[t].reverse_port;
    cursor = trunks_[t].to;
  }
  switches_[cursor]->route_vc(vc, dests_[dest].port, backward);

  if (overload_) {
    // Book the session's MCR on every hop (idempotent: a session that
    // came through try_add_session is already booked). Plain
    // add_session after arming bypasses the admission *judgment* — the
    // caller said so by not using try_add_session — but never the
    // *bookkeeping*, or later admissions would see phantom headroom.
    for (const auto& [sw, port] : session_hops(ingress, path, dest)) {
      switches_[sw]->force_admit_vc(vc, params.mcr, port);
    }
  }

  if (event_log_ != nullptr) source->set_event_log(event_log_);
  sources_.push_back(std::move(source));
  sessions_.push_back(Session{ingress, path, dest, vc});
  session_demand_bps_.push_back(std::numeric_limits<double>::infinity());
  return sources_.size() - 1;
}

std::vector<std::pair<AbrNetwork::SwitchId, std::size_t>>
AbrNetwork::session_hops(SwitchId ingress, const std::vector<TrunkId>& path,
                         DestId dest) const {
  std::vector<std::pair<SwitchId, std::size_t>> hops;
  SwitchId cursor = ingress;
  for (const TrunkId t : path) {
    hops.emplace_back(cursor, trunks_[t].forward_port);
    cursor = trunks_[t].to;
  }
  hops.emplace_back(cursor, dests_[dest].port);
  return hops;
}

void AbrNetwork::enable_overload_protection(OverloadOptions options) {
  options.buffer.validate();
  options.cac.validate();
  overload_options_ = options;
  overload_ = true;
  for (const auto& sw : switches_) {
    sw->enable_buffer_management(options.buffer);
    sw->enable_admission_control(options.cac);
  }
  // Grandfather what already exists: arming the armor must not orphan
  // contracts the network accepted while unarmed.
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    const Session& sess = sessions_[s];
    const sim::Rate mcr = sources_[s]->params().mcr;
    for (const auto& [sw, port] :
         session_hops(sess.ingress, sess.path, sess.dest)) {
      switches_[sw]->force_admit_vc(sess.vc, mcr, port);
    }
  }
}

AbrNetwork::AdmissionOutcome AbrNetwork::try_add_session(
    SwitchId ingress, const std::vector<TrunkId>& path, DestId dest,
    atm::AbrParams params, sim::Time access_delay) {
  validate_path(ingress, path, dest);
  params.validate();
  AdmissionOutcome outcome;
  if (overload_) {
    // Every hop must say yes before anything is built; the VC id the
    // session *would* get keys the bookings so an admitted setup flows
    // straight into add_session below.
    const int vc = next_vc_;
    const auto hops = session_hops(ingress, path, dest);
    for (std::size_t i = 0; i < hops.size(); ++i) {
      const atm::AdmitVerdict verdict =
          switches_[hops[i].first]->admit_vc(vc, params.mcr, hops[i].second);
      if (verdict != atm::AdmitVerdict::kAdmitted) {
        for (std::size_t j = 0; j < i; ++j) {
          switches_[hops[j].first]->cancel_admission(vc);
        }
        outcome.admitted = false;
        outcome.verdict = verdict;
        outcome.refused_at = hops[i].first;
        return outcome;
      }
    }
  }
  outcome.admitted = true;
  outcome.verdict = atm::AdmitVerdict::kAdmitted;
  outcome.session = add_session(ingress, path, dest, params, access_delay);
  return outcome;
}

AbrNetwork::SessionShape AbrNetwork::session_shape(SessionId s) const {
  const Session& sess = sessions_.at(s);
  return SessionShape{sess.ingress, sess.path, sess.dest};
}

std::uint64_t AbrNetwork::delivered_frames(SessionId s) const {
  const Session& sess = sessions_.at(s);
  return dests_[sess.dest].endpoint->frames_good(sess.vc);
}

void AbrNetwork::squeeze_buffers(double fraction) {
  for (const auto& sw : switches_) {
    if (atm::BufferManager* bm = sw->buffer_manager()) bm->squeeze(fraction);
  }
}

atm::CacCounters AbrNetwork::cac_totals() const {
  atm::CacCounters total;
  for (const auto& sw : switches_) {
    const atm::CacCounters& c = sw->cac_counters();
    total.admitted += c.admitted;
    total.refused_vc_limit += c.refused_vc_limit;
    total.refused_mcr_budget += c.refused_mcr_budget;
    total.refused_buffer += c.refused_buffer;
    total.refused_pressure += c.refused_pressure;
  }
  return total;
}

std::uint64_t AbrNetwork::epd_frames_discarded() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) {
    if (const atm::BufferManager* bm = sw->buffer_manager())
      n += bm->frames_epd_discarded();
  }
  return n;
}

std::uint64_t AbrNetwork::cells_ppd_discarded() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) {
    if (const atm::BufferManager* bm = sw->buffer_manager())
      n += bm->cells_ppd_discarded();
  }
  return n;
}

std::uint64_t AbrNetwork::cells_shed() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) {
    if (const atm::BufferManager* bm = sw->buffer_manager())
      n += bm->cells_shed();
  }
  return n;
}

std::uint64_t AbrNetwork::buffer_overflow_drops() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) {
    if (const atm::BufferManager* bm = sw->buffer_manager())
      n += bm->cells_overflow_dropped();
  }
  return n;
}

std::size_t AbrNetwork::buffer_cells_in_use() const {
  std::size_t n = 0;
  for (const auto& sw : switches_) {
    if (const atm::BufferManager* bm = sw->buffer_manager())
      n += bm->cells_in_use();
  }
  return n;
}

void AbrNetwork::set_session_demand(SessionId s, sim::Rate demand) {
  sources_.at(s)->set_demand(demand);
  session_demand_bps_.at(s) = demand.bits_per_sec();
}

std::size_t AbrNetwork::add_cbr_session(SwitchId ingress,
                                        const std::vector<TrunkId>& path,
                                        DestId dest, sim::Rate rate,
                                        sim::Time access_delay) {
  validate_path(ingress, path, dest);
  const int vc = next_vc_++;
  cbr_sources_.push_back(std::make_unique<atm::CbrSource>(
      *sim_, vc, rate, Link{*sim_, access_delay, *switches_[ingress]}));
  // CBR never generates RM cells, so the backward route is a formality;
  // point it at the forward port.
  SwitchId cursor = ingress;
  for (const TrunkId t : path) {
    switches_[cursor]->route_vc(vc, trunks_[t].forward_port,
                                trunks_[t].forward_port);
    cursor = trunks_[t].to;
  }
  switches_[cursor]->route_vc(vc, dests_[dest].port, dests_[dest].port);
  cbr_sessions_.push_back(CbrSession{path, dest, rate});
  return cbr_sources_.size() - 1;
}

void AbrNetwork::start_all(sim::Time first, sim::Time stagger) {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    sources_[i]->start(first + stagger * static_cast<std::int64_t>(i));
  }
  for (const auto& cbr : cbr_sources_) cbr->start(first);
}

atm::OutputPort& AbrNetwork::trunk_port(TrunkId t) {
  const Trunk& trunk = trunks_.at(t);
  return switches_[trunk.from]->port(trunk.forward_port);
}

atm::OutputPort& AbrNetwork::trunk_reverse_port(TrunkId t) {
  const Trunk& trunk = trunks_.at(t);
  return switches_[trunk.to]->port(trunk.reverse_port);
}

std::uint64_t AbrNetwork::total_cells_lost() const {
  std::uint64_t lost = 0;
  for_each_link_state([&lost](const atm::LinkState& st) { lost += st.lost(); });
  return lost;
}

atm::OutputPort& AbrNetwork::dest_port(DestId d) {
  const Destination& dest = dests_.at(d);
  return switches_[dest.at]->port(dest.port);
}

std::uint64_t AbrNetwork::delivered_cells(SessionId s) const {
  const Session& sess = sessions_.at(s);
  return dests_[sess.dest].endpoint->data_cells_received(sess.vc);
}

void AbrNetwork::set_session_behavior(SessionId s,
                                      atm::SourceBehavior behavior,
                                      double compliance) {
  sources_.at(s)->set_behavior(behavior, compliance);
}

void AbrNetwork::enable_policing(atm::PolicerConfig config) {
  for (const auto& sw : switches_) {
    sw->enable_policing(config);
    if (config.action == atm::PolicingAction::kTag) {
      // Tagging is only meaningful with partial buffer sharing: tagged
      // cells ride along until a queue passes half its limit, then they
      // are discarded first.
      for (std::size_t p = 0; p < sw->num_ports(); ++p) {
        atm::OutputPort& port = sw->port(p);
        port.set_clp_threshold(std::max<std::size_t>(1, port.queue_limit() / 2));
      }
    }
  }
}

void AbrNetwork::enable_reaping(atm::ReaperConfig config) {
  for (const auto& sw : switches_) sw->enable_reaping(config);
}

void AbrNetwork::teardown_session_state(SessionId s) {
  const Session& session = sessions_.at(s);
  node(session.ingress).evict_vc(session.vc);
  for (const TrunkId t : session.path) {
    node(trunks_.at(t).to).evict_vc(session.vc);
  }
}

std::uint64_t AbrNetwork::vcs_reaped() const {
  std::uint64_t reaped = 0;
  for (const auto& sw : switches_) reaped += sw->vcs_reaped();
  return reaped;
}

std::uint64_t AbrNetwork::policer_dropped_cells() const {
  std::uint64_t dropped = 0;
  for (const auto& sw : switches_) {
    if (const atm::Policer* p = sw->policer()) dropped += p->cells_dropped();
  }
  return dropped;
}

std::uint64_t AbrNetwork::rm_cells_sanitized() const {
  std::uint64_t sanitized = 0;
  for (const auto& sw : switches_) sanitized += sw->rm_cells_sanitized();
  return sanitized;
}

std::vector<sim::Rate> AbrNetwork::reference_rates(bool phantom_per_link,
                                                   double utilization) const {
  stats::MaxMinSolver solver;
  // Controlled trunks and controlled destination ports are the
  // capacity-constrained links; everything else is overprovisioned
  // plumbing.
  // CBR background traffic is not rate-controlled: it simply removes
  // capacity from every controlled link it crosses. The controllers
  // steer toward u*C_raw - cbr, and the solver applies `utilization`
  // to the capacities we hand it, so pre-divide the CBR load by u:
  // u * (C_raw - cbr/u) = u*C_raw - cbr.
  std::vector<double> trunk_cbr(trunks_.size(), 0.0);
  std::vector<double> dest_cbr(dests_.size(), 0.0);
  for (const CbrSession& cbr : cbr_sessions_) {
    const double load = cbr.rate.bits_per_sec() / utilization;
    for (const TrunkId t : cbr.path) trunk_cbr[t] += load;
    dest_cbr[cbr.dest] += load;
  }
  std::vector<std::size_t> trunk_link(trunks_.size(), SIZE_MAX);
  std::vector<std::size_t> dest_link(dests_.size(), SIZE_MAX);
  for (std::size_t t = 0; t < trunks_.size(); ++t) {
    if (trunks_[t].controlled) {
      trunk_link[t] = solver.add_link(
          sim::Rate::bps(trunks_[t].rate.bits_per_sec() - trunk_cbr[t]));
    }
  }
  for (std::size_t d = 0; d < dests_.size(); ++d) {
    if (dests_[d].controlled) {
      dest_link[d] = solver.add_link(
          sim::Rate::bps(dests_[d].rate.bits_per_sec() - dest_cbr[d]));
    }
  }
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    const Session& sess = sessions_[s];
    std::vector<std::size_t> links;
    for (const TrunkId t : sess.path) {
      if (trunk_link[t] != SIZE_MAX) links.push_back(trunk_link[t]);
    }
    if (dest_link[sess.dest] != SIZE_MAX) links.push_back(dest_link[sess.dest]);
    if (links.empty()) {
      throw std::logic_error{
          "reference_rates: a session crosses no controlled link"};
    }
    solver.add_session(std::move(links),
                       sim::Rate::bps(session_demand_bps_[s]));
  }
  return solver.solve(phantom_per_link, utilization);
}

}  // namespace phantom::topo
