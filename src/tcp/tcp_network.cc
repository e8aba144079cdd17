#include "tcp/tcp_network.h"

#include <stdexcept>

#include "sim/ring.h"

namespace phantom::tcp {

namespace {
constexpr std::size_t kPlumbingQueueLimit = 100'000;  // never the bottleneck
}

/// Serializes a sender's window bursts onto its access link before they
/// reach the ingress router: a FIFO drained at the access rate, with no
/// policy and no quench tap. Unlike a router's PacketPort it keeps one
/// completion event per packet, and the packet draws its arrival key
/// when that event hands it to the link. Drawing the keys at accept
/// instead reorders simultaneous arrivals at the ingress router, and
/// through drop-tail phase effects moves the scenarios whose flows
/// share an access delay (DESIGN.md §11).
class TcpNetwork::HostPort {
 public:
  HostPort(sim::Simulator& sim, sim::Rate rate, PacketLink link)
      : sim_{&sim}, times_{rate}, link_{link} {}

  HostPort(const HostPort&) = delete;
  HostPort& operator=(const HostPort&) = delete;

  void send(const Packet& packet) {
    if (queue_.size() >= kPlumbingQueueLimit) return;
    queue_.push_back(packet);
    if (queue_.size() == 1) start();
  }

 private:
  /// Serializes the head packet, which stays queued until it is done.
  void start() {
    sim_->schedule(times_.of(queue_.front().wire_bits()),
                   sim::bind_member<&HostPort::complete>(this));
  }
  void complete() {
    link_.deliver(queue_.front());
    queue_.pop_front();
    if (!queue_.empty()) start();
  }

  sim::Simulator* sim_;
  PacketTimes times_;
  PacketLink link_;
  sim::Ring<Packet> queue_;
};

TcpNetwork::TcpNetwork(sim::Simulator& sim) : sim_{&sim} {}
TcpNetwork::~TcpNetwork() = default;

TcpNetwork::RouterId TcpNetwork::add_router(std::string name) {
  routers_.push_back(std::make_unique<Router>(*sim_, std::move(name)));
  return routers_.size() - 1;
}

TcpNetwork::TrunkId TcpNetwork::add_trunk(RouterId from, RouterId to,
                                          TcpTrunkOptions options) {
  if (from >= routers_.size() || to >= routers_.size() || from == to) {
    throw std::out_of_range{"add_trunk: bad router ids"};
  }
  Trunk t;
  t.from = from;
  t.to = to;
  auto policy = options.policy ? options.policy(*sim_, options.rate)
                               : std::unique_ptr<QueuePolicy>{};
  t.forward_port = routers_[from]->add_port(
      options.rate, options.queue_limit,
      PacketLink{*sim_, options.delay, *routers_[to], options.loss},
      std::move(policy));
  t.reverse_port = routers_[to]->add_port(
      options.rate, kPlumbingQueueLimit,
      PacketLink{*sim_, options.delay, *routers_[from], options.loss},
      nullptr);
  trunks_.push_back(t);
  return trunks_.size() - 1;
}

TcpNetwork::SinkNodeId TcpNetwork::add_sink_node(RouterId at,
                                                 TcpTrunkOptions options) {
  if (at >= routers_.size()) {
    throw std::out_of_range{"add_sink_node: bad router id"};
  }
  SinkNode node;
  node.at = at;
  node.host = std::make_unique<SinkHost>();
  node.delay = options.delay;
  auto policy = options.policy ? options.policy(*sim_, options.rate)
                               : std::unique_ptr<QueuePolicy>{};
  node.port = routers_[at]->add_port(
      options.rate, options.queue_limit,
      PacketLink{*sim_, options.delay, *node.host, options.loss},
      std::move(policy));
  sink_nodes_.push_back(std::move(node));
  return sink_nodes_.size() - 1;
}

TcpNetwork::FlowId TcpNetwork::add_flow(RouterId ingress,
                                        const std::vector<TrunkId>& path,
                                        SinkNodeId sink_id, RenoConfig config,
                                        sim::Rate access_rate,
                                        sim::Time access_delay,
                                        TcpSinkOptions sink_options) {
  FlowOptions options;
  options.config = config;
  options.access_rate = access_rate;
  options.access_delay = access_delay;
  options.sink = sink_options;
  return add_flow(ingress, path, sink_id, options);
}

TcpNetwork::FlowId TcpNetwork::add_flow(RouterId ingress,
                                        const std::vector<TrunkId>& path,
                                        SinkNodeId sink_id,
                                        FlowOptions options) {
  const RenoConfig& config = options.config;
  const sim::Rate access_rate = options.access_rate;
  const sim::Time access_delay = options.access_delay;
  const TcpSinkOptions sink_options = options.sink;
  if (ingress >= routers_.size()) {
    throw std::out_of_range{"add_flow: bad ingress router"};
  }
  if (sink_id >= sink_nodes_.size()) {
    throw std::out_of_range{"add_flow: bad sink node"};
  }
  RouterId cursor = ingress;
  for (const TrunkId t : path) {
    if (t >= trunks_.size() || trunks_[t].from != cursor) {
      throw std::invalid_argument{"add_flow: path is not connected"};
    }
    cursor = trunks_[t].to;
  }
  SinkNode& node = sink_nodes_[sink_id];
  if (node.at != cursor) {
    throw std::invalid_argument{
        "add_flow: sink node does not hang off the path's last router"};
  }

  const int flow = static_cast<int>(sources_.size());

  host_ports_.push_back(std::make_unique<HostPort>(
      *sim_, access_rate, PacketLink{*sim_, access_delay, *routers_[ingress]}));
  HostPort* access = host_ports_.back().get();

  TcpSender::Emitter emitter = [access](const Packet& p) { access->send(p); };
  std::unique_ptr<TcpSender> source;
  switch (options.kind) {
    case SenderKind::kReno:
      source = std::make_unique<RenoSource>(*sim_, flow, config,
                                            std::move(emitter));
      break;
    case SenderKind::kTahoe:
      source = std::make_unique<TahoeSource>(*sim_, flow, config,
                                             std::move(emitter));
      break;
    case SenderKind::kAggressive:
      source = std::make_unique<AggressiveSource>(*sim_, flow, config,
                                                  std::move(emitter));
      break;
    case SenderKind::kVegas: {
      VegasConfig vcfg = options.vegas;
      vcfg.base = config;
      source = std::make_unique<VegasSource>(*sim_, flow, vcfg,
                                             std::move(emitter));
      break;
    }
  }

  // Backward port at the ingress router delivering ACKs / quenches to
  // the source.
  const std::size_t to_source_port = routers_[ingress]->add_port(
      access_rate, kPlumbingQueueLimit,
      PacketLink{*sim_, access_delay, *source}, nullptr);

  // Per-router routes, walking the path.
  std::size_t backward = to_source_port;
  cursor = ingress;
  for (const TrunkId t : path) {
    routers_[cursor]->route_flow(flow, trunks_[t].forward_port, backward);
    backward = trunks_[t].reverse_port;
    cursor = trunks_[t].to;
  }
  routers_[cursor]->route_flow(flow, node.port, backward);

  // Receiver: ACKs cross the host's return link, re-enter the
  // terminating router and follow the backward route.
  PacketLink ack_link{*sim_, node.delay, *routers_[cursor]};
  auto sink = std::make_unique<TcpSink>(
      *sim_, flow,
      [ack_link](const Packet& ack) mutable { ack_link.deliver(ack); },
      sink_options);
  node.host->attach(flow, *sink);

  sources_.push_back(std::move(source));
  sinks_.push_back(std::move(sink));
  return static_cast<FlowId>(flow);
}

void TcpNetwork::start_all(sim::Time first, sim::Time stagger) {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    sources_[i]->start(first + stagger * static_cast<std::int64_t>(i));
  }
}

PacketPort& TcpNetwork::trunk_port(TrunkId t) {
  const Trunk& trunk = trunks_.at(t);
  return routers_[trunk.from]->port(trunk.forward_port);
}

PacketPort& TcpNetwork::sink_port(SinkNodeId s) {
  const SinkNode& node = sink_nodes_.at(s);
  return routers_[node.at]->port(node.port);
}

}  // namespace phantom::tcp
