// The one description of a simulated network under test.
//
// A Scenario is the small, serializable description of an ABR network:
// topology kind, algorithm, session count, link rate, horizon, source
// parameters and overload protection. phantom_cli, the chaos harness,
// the benches and the tests all build from it, so any fault schedule
// the chaos search reports replays 1:1 under
// `phantom_cli --fault-plan=...`. A TcpScenario is the paper's §4.3
// router scenario or its Fig 17 router chain, the packet half of the
// same surface.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "atm/abr_params.h"
#include "atm/output_port.h"
#include "exp/factories.h"
#include "sim/simulator.h"
#include "tcp/tcp_network.h"
#include "topo/abr_network.h"

namespace phantom::exp {

struct BuiltScenario;

struct Scenario {
  enum class Kind {
    kBottleneck,  ///< one switch, N sessions into one controlled link
    kParking,     ///< parking lot: long session + one local per hop
    /// The paper's Fig 7-8 lot over k = max(2, sessions - 1) controlled
    /// links (kParking counts its hops the same way): switches
    /// s0..s(k-1), trunks between them, and the controlled last hop
    /// d_end at s(k-1). The long session crosses every trunk to d_end;
    /// each trunk carries one local to a 622 Mb/s uncontrolled stub, and
    /// one local at s(k-1) shares d_end.
    kPaperLot,
  };

  Kind kind = Kind::kBottleneck;
  Algorithm algorithm = Algorithm::kPhantom;
  int sessions = 3;
  double rate_mbps = 150.0;
  /// kPaperLot only: each controlled link's rate, the trunks in order
  /// and d_end last. Empty = rate_mbps on each; otherwise one per link.
  std::vector<double> lot_rates_mbps{};
  sim::Time horizon = sim::Time::ms(600);
  /// Source parameters for every ABR session (crm/cdf/adtf tuning and
  /// the --no-feedback-decay ablation ride through here); defaults are
  /// the TM 4.0 values phantom_cli uses.
  atm::AbrParams abr_params{};

  /// Arm overload protection (bounded cell memory + admission control)
  /// on the built network. Required for plans containing memsqueeze /
  /// vcstorm events; opt-in so existing scenario specs stay identical.
  bool overload = false;
  /// Shared buffer/CAC configuration when `overload` is set.
  topo::OverloadOptions overload_options{};

  /// Controllers other than make_factory(algorithm): tuned Phantom
  /// configurations, or the deliberately broken controllers the chaos
  /// harness's own tests plant. Empty = make_factory(algorithm).
  topo::ControllerFactory factory_override{};

  [[nodiscard]] topo::ControllerFactory factory() const;

  /// Wires the network on `sim`, which must outlive the result. Does
  /// not start the sources: callers start_all() once their probes are
  /// armed.
  [[nodiscard]] BuiltScenario build(sim::Simulator& sim) const;
};

/// A built Scenario: the network and the port the oracles watch (the
/// bottleneck's destination port, or either parking lot's first trunk).
struct BuiltScenario {
  BuiltScenario(sim::Simulator& sim, const Scenario& spec);

  topo::AbrNetwork net;
  atm::OutputPort& port;
};

[[nodiscard]] std::string to_string(Scenario::Kind k);
[[nodiscard]] std::optional<Scenario::Kind> kind_from_string(
    const std::string& name);

/// What a generated FaultPlan may target in a built scenario. Dest
/// indices below `controlled_dests` run a real flow-control algorithm
/// (restartable); the rest are uncontrolled exit stubs.
struct TopologyInfo {
  std::size_t trunks = 0;
  std::size_t dests = 0;
  std::size_t controlled_dests = 0;
  std::size_t sessions = 0;
};

/// Target counts for `spec` without building the network.
[[nodiscard]] TopologyInfo topology_info(const Scenario& spec);

/// Wires `spec`'s topology into `net` (which must have been constructed
/// with spec.factory()) and returns the port the oracles watch.
atm::OutputPort& build_topology(const Scenario& spec, topo::AbrNetwork& net);

struct BuiltTcpScenario;

/// Result of one TcpScenario run; the queue figures are its watched
/// port's.
struct TcpRun {
  std::vector<double> mbps;  ///< per-flow goodput over [settle, horizon]
  double total = 0.0;
  double jain = 0.0;
  double mean_queue = 0.0;    ///< packets, sampled every 5 ms after settle
  std::size_t max_queue = 0;  ///< packets, whole run
  std::uint64_t drops = 0;    ///< packets, whole run
};

/// A TCP scenario of greedy Reno flows whose policed ports run `policy`
/// (null = drop-tail) at `rate` with `buffer` packets; the flows start
/// 73 ms apart.
struct TcpScenario {
  enum class Kind {
    /// The §4.3 scenario: `flows` flows into one router, r0. Flow i's
    /// 100 Mb/s access link has a 3·2^min(i,4) ms delay (RTTs of 6, 12,
    /// 24, 48 ms, then 96 ms for every further flow).
    kRouter,
    /// The Fig 17 beat-down chain over k = max(2, flows - 1) policed
    /// links: routers r0..r(k-1), trunks between them, and the end sink
    /// at r(k-1), each link with a 3 ms delay. The long flow crosses
    /// every trunk to the end sink; each trunk carries one local to a
    /// 100 Mb/s, 1,000-packet drop-tail sink, and one local at r(k-1)
    /// shares the end sink. Access links are 100 Mb/s, 1 ms.
    kChain,
  };

  Kind kind = Kind::kRouter;
  int flows = 4;
  sim::Rate rate = sim::Rate::mbps(10);
  std::size_t buffer = 60;  ///< each policed port's queue limit, packets
  tcp::PolicyFactory policy{};
  /// run() measures goodput and the mean queue over [settle, horizon];
  /// settle <= horizon.
  sim::Time settle = sim::Time::sec(3);
  sim::Time horizon = sim::Time::sec(12);

  /// Wires the network on `sim`, which must outlive the result, and
  /// starts the flows.
  [[nodiscard]] BuiltTcpScenario build(sim::Simulator& sim) const;

  /// Builds on a fresh `sim` and runs it to the horizon. The network
  /// lives only for the call: afterwards read `sim`'s counters, but do
  /// not run it again.
  [[nodiscard]] TcpRun run(sim::Simulator& sim) const;
};

/// A built TcpScenario: the network, its flows started, and the port
/// run() watches (the router's port to the sink, or the chain's first
/// trunk).
struct BuiltTcpScenario {
  BuiltTcpScenario(sim::Simulator& sim, const TcpScenario& spec);

  tcp::TcpNetwork net;
  tcp::PacketPort& port;
};

}  // namespace phantom::exp
