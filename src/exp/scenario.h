// The one description of a simulated network under test.
//
// A Scenario is the small, serializable description of an ABR network:
// topology kind, algorithm, session count, link rate, horizon, source
// parameters and overload protection. phantom_cli, the chaos harness,
// the benches and the tests all build from it, so any fault schedule
// the chaos search reports replays 1:1 under
// `phantom_cli --fault-plan=...`. A TcpScenario is the paper's §4.3
// router scenario, the packet half of the same surface.
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
  };

  Kind kind = Kind::kBottleneck;
  Algorithm algorithm = Algorithm::kPhantom;
  int sessions = 3;
  double rate_mbps = 150.0;
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
/// bottleneck's destination port, or the parking lot's first trunk).
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

/// Result of one TcpScenario run.
struct TcpRun {
  std::vector<double> mbps;  ///< per-flow goodput over [settle, horizon]
  double total = 0.0;
  double jain = 0.0;
  double mean_queue = 0.0;    ///< packets, sampled every 5 ms after settle
  std::size_t max_queue = 0;  ///< packets, whole run
  std::uint64_t drops = 0;    ///< packets, whole run
};

/// The §4.3 TCP scenario: `flows` greedy Reno flows into one router
/// whose bottleneck port runs `policy` (null = drop-tail). Flow i's
/// 100 Mb/s access link has a 3·2^min(i,4) ms delay (RTTs of 6, 12, 24,
/// 48 ms, then 96 ms for every further flow), and the flows start 73 ms
/// apart.
struct TcpScenario {
  int flows = 4;
  sim::Rate rate = sim::Rate::mbps(10);
  std::size_t buffer = 60;  ///< bottleneck queue limit, packets
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

/// A built TcpScenario: the network, its flows started, and the
/// bottleneck port feeding the sinks.
struct BuiltTcpScenario {
  BuiltTcpScenario(sim::Simulator& sim, const TcpScenario& spec);

  tcp::TcpNetwork net;
  tcp::PacketPort& port;
};

}  // namespace phantom::exp
