// Declarative builder for ABR simulation topologies.
//
// Wires sources, switches, trunks and destinations into a running
// network, handling the fiddly part — per-switch forward/backward VC
// routing so backward RM cells retrace the session's path and collect
// feedback from every controlled port they crossed going forward.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atm/abr_destination.h"
#include "atm/cbr_source.h"
#include "atm/abr_source.h"
#include "atm/port_controller.h"
#include "atm/switch.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "stats/fairness.h"

namespace phantom::topo {

/// Builds a flow-control algorithm instance for a controlled port of the
/// given capacity.
using ControllerFactory = std::function<std::unique_ptr<atm::PortController>(
    sim::Simulator&, sim::Rate)>;

/// Overload armor for the whole network: every switch gets a bounded
/// cell memory (BufferManager) and Connection Admission Control with
/// one shared configuration.
struct OverloadOptions {
  atm::BufferConfig buffer;
  atm::CacConfig cac;
};

struct TrunkOptions {
  sim::Rate rate = sim::Rate::mbps(150);
  sim::Time delay = sim::Time::us(2);
  std::size_t queue_limit = 20'000;
  bool controlled = true;  ///< run the flow-control algorithm on this port
  double loss = 0.0;       ///< random cell-loss probability (failure tests)
  /// Strict priority serves CBR/VBR cells first (real switches protect
  /// the guaranteed classes); FIFO mixes everything.
  atm::QueueDiscipline discipline = atm::QueueDiscipline::kFifo;
};

/// An ABR network under construction / in operation.
///
/// Index types are plain size_t handles returned by the add_* calls.
/// Typical use (single bottleneck, the paper's base configuration):
///
///     AbrNetwork net{sim, phantom_factory};
///     auto sw = net.add_switch("sw");
///     auto d = net.add_destination(sw, {.rate = Rate::mbps(150)});
///     for (int i = 0; i < n; ++i) net.add_session(sw, {}, d, params);
///     net.start_all(Time::zero(), Time::zero());
///     sim.run_until(Time::ms(200));
class AbrNetwork {
 public:
  using SwitchId = std::size_t;
  using TrunkId = std::size_t;
  using DestId = std::size_t;
  using SessionId = std::size_t;

  AbrNetwork(sim::Simulator& sim, ControllerFactory factory);

  AbrNetwork(const AbrNetwork&) = delete;
  AbrNetwork& operator=(const AbrNetwork&) = delete;

  SwitchId add_switch(std::string name);

  /// Duplex trunk between two switches: a forward port at `from`
  /// (controlled per options) plus an uncontrolled reverse port at `to`
  /// for returning RM cells.
  TrunkId add_trunk(SwitchId from, SwitchId to, TrunkOptions options = {});

  /// Destination endpoint hanging off `at`. The port feeding it is the
  /// session's last hop; mark it controlled when it *is* the bottleneck
  /// under study (single-link configs), uncontrolled when it is just an
  /// exit stub (parking-lot locals).
  DestId add_destination(SwitchId at, TrunkOptions options = {});

  /// Session from a new source at `ingress`, across `path` (trunks must
  /// be connected head-to-tail starting at `ingress`), terminating at
  /// `dest` (which must hang off the last switch of the path).
  /// `access_delay` applies to the source's access link both ways.
  SessionId add_session(SwitchId ingress, const std::vector<TrunkId>& path,
                        DestId dest, atm::AbrParams params = {},
                        sim::Time access_delay = sim::Time::us(2));

  /// Constant-bit-rate background stream along `path` to `dest`,
  /// ignoring all feedback (models the guaranteed-traffic classes that
  /// ABR yields to). Returns an index for cbr_source(). CBR streams are
  /// excluded from reference_rates(); their rate is subtracted from the
  /// capacity of every controlled link they cross.
  std::size_t add_cbr_session(SwitchId ingress,
                              const std::vector<TrunkId>& path, DestId dest,
                              sim::Rate rate,
                              sim::Time access_delay = sim::Time::us(2));

  /// Starts ABR session i at `first + i * stagger`; CBR streams start
  /// at `first`.
  void start_all(sim::Time first, sim::Time stagger);

  [[nodiscard]] atm::AbrSource& source(SessionId s) { return *sources_.at(s); }
  [[nodiscard]] atm::CbrSource& cbr_source(std::size_t i) {
    return *cbr_sources_.at(i);
  }
  [[nodiscard]] const atm::AbrSource& source(SessionId s) const {
    return *sources_.at(s);
  }
  [[nodiscard]] atm::Switch& node(SwitchId s) { return *switches_.at(s); }
  [[nodiscard]] atm::AbrDestination& destination(DestId d) {
    return *dests_.at(d).endpoint;
  }
  /// The controlled output port of a trunk.
  [[nodiscard]] atm::OutputPort& trunk_port(TrunkId t);
  /// The uncontrolled reverse port of a trunk (returning RM cells) —
  /// the fault subsystem takes both directions of a trunk down together.
  [[nodiscard]] atm::OutputPort& trunk_reverse_port(TrunkId t);
  /// The output port feeding a destination.
  [[nodiscard]] atm::OutputPort& dest_port(DestId d);

  [[nodiscard]] std::size_t num_sessions() const { return sources_.size(); }
  [[nodiscard]] std::size_t num_switches() const { return switches_.size(); }
  [[nodiscard]] std::size_t num_trunks() const { return trunks_.size(); }
  [[nodiscard]] std::size_t num_destinations() const { return dests_.size(); }
  [[nodiscard]] std::size_t num_cbr_sessions() const {
    return cbr_sources_.size();
  }

  /// Calls `f(const atm::LinkState&)` for every physical link hop the
  /// network wired: each switch's port links in port order, then the
  /// source, CBR source and destination access links. The invariant
  /// monitor sums loss / in-flight counters over exactly this set for
  /// cell conservation, once a millisecond, so the walk builds no list.
  template <typename F>
  void for_each_link_state(F&& f) const {
    const auto visit = [&f](const atm::Link& link) {
      f(std::as_const(*link.state()));
    };
    for (const auto& sw : switches_) {
      for (std::size_t p = 0; p < sw->num_ports(); ++p) {
        visit(sw->port(p).link());
      }
    }
    for (const auto& src : sources_) visit(src->link());
    for (const auto& cbr : cbr_sources_) visit(cbr->link());
    for (const auto& d : dests_) visit(d.endpoint->link());
  }

  /// Aggregate cells lost on all links (outages, random loss, bursts,
  /// RM-targeted faults) — the loss-accounting probe.
  [[nodiscard]] std::uint64_t total_cells_lost() const;

  /// Data cells received so far for session `s` at its destination.
  [[nodiscard]] std::uint64_t delivered_cells(SessionId s) const;

  /// The VC identifier session `s` transmits on (policer stats are
  /// keyed by VC).
  [[nodiscard]] int session_vc(SessionId s) const {
    return sessions_.at(s).vc;
  }

  /// Switches session `s` to the given feedback behaviour (see
  /// atm::SourceBehavior) — the `misbehave`/`comply` faults.
  void set_session_behavior(SessionId s, atm::SourceBehavior behavior,
                            double compliance = 1.0);

  /// Attaches a UPC policer (shared config) at every switch's ingress.
  void enable_policing(atm::PolicerConfig config);
  /// Starts the stale-VC reaper (shared config) on every switch: silent
  /// VCs are declared dead, their policer state evicted, and their
  /// share released to the controllers via vc_expired().
  void enable_reaping(atm::ReaperConfig config = {});
  /// Explicit teardown of session `s`'s dynamic per-VC state on every
  /// switch along its path (the caller knows the session is gone; no
  /// need to wait for the silence timeout). The route itself stays.
  void teardown_session_state(SessionId s);
  /// VCs evicted so far (reaper sweeps + explicit teardowns), summed
  /// over all switches. One session crossing k switches counts k times.
  [[nodiscard]] std::uint64_t vcs_reaped() const;
  /// Cells discarded at switch ingress by drop-mode policing, summed
  /// over all switches. These never reached a port queue, so they form
  /// their own term in the cell-conservation ledger.
  [[nodiscard]] std::uint64_t policer_dropped_cells() const;
  /// RM cells whose fields were sanitized on switch ingest, summed over
  /// all switches.
  [[nodiscard]] std::uint64_t rm_cells_sanitized() const;

  /// Ideal allocation for the current topology: max-min over the
  /// *controlled* links, optionally with one phantom session per link
  /// (the paper's predicted Phantom equilibrium), at utilization u.
  [[nodiscard]] std::vector<sim::Rate> reference_rates(
      bool phantom_per_link, double utilization) const;

  // --- Overload protection (bounded memory + admission control) ---

  /// Arms every switch with a bounded cell memory and CAC (shared
  /// config), and grandfathers the sessions that already exist: their
  /// MCRs are booked (and buffer-protected) without being re-judged —
  /// an armed switch must not retroactively orphan contracts it already
  /// accepted. Call before traffic flows; ports refuse to join a budget
  /// with cells already queued.
  void enable_overload_protection(OverloadOptions options = {});
  [[nodiscard]] bool overload_protection_enabled() const { return overload_; }

  /// The admission outcome of try_add_session.
  struct AdmissionOutcome {
    bool admitted = false;
    /// First refusal reason along the path (kAdmitted when admitted).
    atm::AdmitVerdict verdict = atm::AdmitVerdict::kAdmitted;
    /// Switch that refused (meaningful only when !admitted).
    SwitchId refused_at = 0;
    /// The created session (meaningful only when admitted).
    SessionId session = 0;
  };

  /// add_session with admission control: every switch along the path
  /// must admit the VC (MCR booking, buffer headroom, VC table,
  /// pressure) before any state is built. A refusal at hop k rolls back
  /// the bookings at hops 0..k-1 and builds nothing. With overload
  /// protection off, this is exactly add_session.
  AdmissionOutcome try_add_session(SwitchId ingress,
                                   const std::vector<TrunkId>& path,
                                   DestId dest, atm::AbrParams params = {},
                                   sim::Time access_delay = sim::Time::us(2));

  /// Ingress/path/destination of an existing session — what a VC-storm
  /// fault clones to offer the network more of the same load.
  struct SessionShape {
    SwitchId ingress;
    std::vector<TrunkId> path;
    DestId dest;
  };
  [[nodiscard]] SessionShape session_shape(SessionId s) const;

  /// Complete AAL5 frames delivered for session `s` (frame-level
  /// goodput; see AbrDestination frame accounting).
  [[nodiscard]] std::uint64_t delivered_frames(SessionId s) const;

  /// The memsqueeze fault: shrink every switch's effective buffer
  /// budget to `fraction` of its configured size (1.0 restores).
  void squeeze_buffers(double fraction);

  // --- Observability ---

  /// Attaches the structured event log to every switch (node index =
  /// SwitchId) and every source, including ones added later. Pass
  /// nullptr to detach. The log must outlive the network.
  void attach_event_log(obs::EventLog* log);

  /// Registers every switch's metrics (prefix = the switch's name,
  /// deduplicated with "#<id>" on collision) and every session source's
  /// (prefix = "session<i>") into `reg`. Call once, after the topology
  /// is built; sessions added afterwards are not registered.
  void register_metrics(obs::Registry& reg);

  /// CAC counters summed over all switches (a session crossing k armed
  /// switches counts up to k admissions; a refusal counts once, at the
  /// switch that refused).
  [[nodiscard]] atm::CacCounters cac_totals() const;
  /// Buffer-manager discard counters summed over all switches.
  [[nodiscard]] std::uint64_t epd_frames_discarded() const;
  [[nodiscard]] std::uint64_t cells_ppd_discarded() const;
  [[nodiscard]] std::uint64_t cells_shed() const;
  [[nodiscard]] std::uint64_t buffer_overflow_drops() const;
  [[nodiscard]] std::size_t buffer_cells_in_use() const;

 private:
  struct Trunk {
    SwitchId from;
    SwitchId to;
    std::size_t forward_port;  // at `from`
    std::size_t reverse_port;  // at `to`
    bool controlled;
    sim::Rate rate;
  };
  struct Destination {
    SwitchId at;
    std::size_t port;  // at `at`, feeding the endpoint
    std::unique_ptr<atm::AbrDestination> endpoint;
    bool controlled;
    sim::Rate rate;
  };
  struct Session {
    SwitchId ingress;
    std::vector<TrunkId> path;
    DestId dest;
    int vc;
  };

 public:
  /// Caps a session's demand (see AbrSource::set_demand) and records it
  /// so reference_rates() computes the demand-constrained max-min
  /// allocation.
  void set_session_demand(SessionId s, sim::Rate demand);

 private:
  std::vector<double> session_demand_bps_;  // +inf = greedy
  struct CbrSession {
    std::vector<TrunkId> path;
    DestId dest;
    sim::Rate rate;
  };

  std::size_t add_port(SwitchId at, atm::CellSink& sink, sim::Rate rate,
                       sim::Time delay, std::size_t queue_limit,
                       bool controlled, double loss = 0.0,
                       atm::QueueDiscipline discipline =
                           atm::QueueDiscipline::kFifo);
  void validate_path(SwitchId ingress, const std::vector<TrunkId>& path,
                     DestId dest) const;
  /// (switch, forward port) per hop, ingress first, egress last.
  [[nodiscard]] std::vector<std::pair<SwitchId, std::size_t>> session_hops(
      SwitchId ingress, const std::vector<TrunkId>& path, DestId dest) const;

  sim::Simulator* sim_;
  ControllerFactory factory_;
  std::vector<std::unique_ptr<atm::Switch>> switches_;
  std::vector<Trunk> trunks_;
  std::vector<Destination> dests_;
  std::vector<std::unique_ptr<atm::AbrSource>> sources_;
  std::vector<Session> sessions_;
  std::vector<std::unique_ptr<atm::CbrSource>> cbr_sources_;
  std::vector<CbrSession> cbr_sessions_;
  int next_vc_ = 0;
  bool overload_ = false;
  OverloadOptions overload_options_;
  obs::EventLog* event_log_ = nullptr;
};

}  // namespace phantom::topo
