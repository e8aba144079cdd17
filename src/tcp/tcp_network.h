// Declarative builder for TCP simulation topologies — the packet twin
// of topo::AbrNetwork.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/id_table.h"
#include "sim/simulator.h"
#include "tcp/packet_port.h"
#include "tcp/queue_policy.h"
#include "tcp/aggressive.h"
#include "tcp/reno.h"
#include "tcp/vegas.h"
#include "tcp/router.h"
#include "tcp/tcp_sink.h"

namespace phantom::tcp {

/// Builds the queue policy for a router port of the given capacity.
/// A null factory yields plain drop-tail.
using PolicyFactory =
    std::function<std::unique_ptr<QueuePolicy>(sim::Simulator&, sim::Rate)>;

struct TcpTrunkOptions {
  sim::Rate rate = sim::Rate::mbps(10);
  sim::Time delay = sim::Time::ms(1);
  std::size_t queue_limit = 64;  ///< packets (paper-era router buffers)
  PolicyFactory policy;          ///< null => drop-tail
  double loss = 0.0;             ///< random packet-loss probability
};

/// Demultiplexes packets arriving at a host that terminates several
/// flows, handing each to its per-flow TcpSink. Packets of flows with
/// no sink attached are ignored.
class SinkHost final : public PacketSink {
 public:
  /// Attaches the sink of `flow`; a flow's first attach stands. Throws
  /// std::out_of_range for a negative flow id.
  void attach(int flow, TcpSink& sink) {
    TcpSink*& entry = sinks_[flow];
    if (entry == nullptr) entry = &sink;
  }
  void receive_packet(const Packet& packet) override {
    if (TcpSink* const* sink = sinks_.find(packet.flow)) {
      (*sink)->receive_packet(packet);
    }
  }

 private:
  sim::IdTable<TcpSink*> sinks_;  // by flow id (dense, from TcpNetwork)
};

/// Which congestion-control flavour a flow's sender runs.
/// kAggressive is the misbehaving sender (tcp/aggressive.h): ignores
/// EFCI, Source Quench, and loss-as-signal.
enum class SenderKind { kReno, kTahoe, kVegas, kAggressive };

/// Per-flow construction options (see add_flow).
struct FlowOptions {
  RenoConfig config{};
  sim::Rate access_rate = sim::Rate::mbps(100);
  sim::Time access_delay = sim::Time::ms(1);
  TcpSinkOptions sink{};
  SenderKind kind = SenderKind::kReno;
  /// Vegas thresholds; `vegas.base` is ignored — `config` is used.
  VegasConfig vegas{};
};

/// A TCP network under construction / in operation. Handles the
/// forward/backward flow routing so ACKs and Source Quenches retrace
/// the data path.
class TcpNetwork {
 public:
  using RouterId = std::size_t;
  using TrunkId = std::size_t;
  using SinkNodeId = std::size_t;
  using FlowId = std::size_t;

  explicit TcpNetwork(sim::Simulator& sim);
  ~TcpNetwork();

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  RouterId add_router(std::string name);

  /// Duplex trunk: a (policy-controlled) forward port at `from` plus an
  /// uncontrolled reverse port at `to` for ACK/SQ traffic.
  TrunkId add_trunk(RouterId from, RouterId to, TcpTrunkOptions options = {});

  /// Host terminating flows, attached at `at`. The port feeding it runs
  /// `options.policy` — in single-router configurations this is the
  /// bottleneck under study.
  SinkNodeId add_sink_node(RouterId at, TcpTrunkOptions options = {});

  /// Flow from a new sender at `ingress`, across `path`, ending at
  /// `sink`. The access link's rate/delay bound the source's burstiness
  /// and contribute (twice) to the flow's RTT.
  FlowId add_flow(RouterId ingress, const std::vector<TrunkId>& path,
                  SinkNodeId sink, FlowOptions options);

  /// Convenience overload: Reno sender, positional knobs.
  FlowId add_flow(RouterId ingress, const std::vector<TrunkId>& path,
                  SinkNodeId sink, RenoConfig config = {},
                  sim::Rate access_rate = sim::Rate::mbps(100),
                  sim::Time access_delay = sim::Time::ms(1),
                  TcpSinkOptions sink_options = {});

  /// Starts flow i at `first + i * stagger`.
  void start_all(sim::Time first, sim::Time stagger);

  [[nodiscard]] TcpSender& source(FlowId f) { return *sources_.at(f); }
  [[nodiscard]] const TcpSender& source(FlowId f) const {
    return *sources_.at(f);
  }
  [[nodiscard]] TcpSink& sink(FlowId f) { return *sinks_.at(f); }
  [[nodiscard]] Router& router(RouterId r) { return *routers_.at(r); }
  [[nodiscard]] PacketPort& trunk_port(TrunkId t);
  [[nodiscard]] PacketPort& sink_port(SinkNodeId s);
  [[nodiscard]] std::size_t num_flows() const { return sources_.size(); }

  /// In-order bytes delivered for a flow (goodput counter).
  [[nodiscard]] std::int64_t delivered_bytes(FlowId f) const {
    return sinks_.at(f)->delivered_bytes();
  }

 private:
  struct Trunk {
    RouterId from;
    RouterId to;
    std::size_t forward_port;
    std::size_t reverse_port;
  };
  struct SinkNode {
    RouterId at;
    std::size_t port;
    std::unique_ptr<SinkHost> host;
    sim::Time delay;  ///< host <-> router propagation delay
  };

  /// A flow's host access serializer (tcp_network.cc).
  class HostPort;

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<Trunk> trunks_;
  std::vector<SinkNode> sink_nodes_;
  std::vector<std::unique_ptr<TcpSender>> sources_;
  std::vector<std::unique_ptr<TcpSink>> sinks_;
  std::vector<std::unique_ptr<HostPort>> host_ports_;  // one per flow
};

}  // namespace phantom::tcp
