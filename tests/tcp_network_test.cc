#include "tcp/tcp_network.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulator.h"

namespace phantom::tcp {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

TEST(SinkHostTest, DeliversByFlowAndIgnoresUnknownFlows) {
  Simulator sim;
  std::vector<Packet> acks0;
  std::vector<Packet> acks2;
  TcpSink sink0{sim, 0, [&acks0](Packet p) { acks0.push_back(p); }};
  TcpSink sink2{sim, 2, [&acks2](Packet p) { acks2.push_back(p); }};
  SinkHost host;
  host.attach(0, sink0);
  host.attach(2, sink2);
  host.receive_packet(Packet::data(2, 0, 512));
  host.receive_packet(Packet::data(0, 0, 512));
  host.receive_packet(Packet::data(1, 0, 512));   // no sink for flow 1
  host.receive_packet(Packet::data(-1, 0, 512));  // negative id
  host.receive_packet(Packet::data(9, 0, 512));   // beyond every sink
  EXPECT_EQ(acks0.size(), 1u);
  EXPECT_EQ(acks2.size(), 1u);
  EXPECT_EQ(sink0.delivered_bytes(), 512);
  EXPECT_EQ(sink2.delivered_bytes(), 512);
}

TEST(SinkHostTest, NegativeFlowIdRejected) {
  Simulator sim;
  TcpSink sink{sim, 0, [](Packet) {}};
  SinkHost host;
  EXPECT_THROW(host.attach(-1, sink), std::out_of_range);
}

TEST(TcpNetworkTest, SingleBottleneckWiring) {
  Simulator sim;
  TcpNetwork net{sim};
  const auto r = net.add_router("r0");
  const auto s = net.add_sink_node(r, {});
  const auto f0 = net.add_flow(r, {}, s);
  const auto f1 = net.add_flow(r, {}, s);
  EXPECT_EQ(net.num_flows(), 2u);
  EXPECT_EQ(f0, 0u);
  EXPECT_EQ(f1, 1u);
  EXPECT_EQ(net.sink_port(s).policy().name(), "droptail");
}

TEST(TcpNetworkTest, DataFlowsEndToEnd) {
  Simulator sim;
  TcpNetwork net{sim};
  const auto r = net.add_router("r0");
  const auto s = net.add_sink_node(r, {});
  net.add_flow(r, {}, s);
  net.start_all(Time::zero(), Time::zero());
  // Skip the slow-start/first-RTO transient, then expect near-capacity
  // goodput: 10 Mb/s * 512/552 = 9.27 Mb/s.
  sim.run_until(Time::sec(2));
  const auto at_2s = net.delivered_bytes(0);
  sim.run_until(Time::sec(4));
  const double mbps =
      static_cast<double>(net.delivered_bytes(0) - at_2s) * 8.0 / 2.0 / 1e6;
  EXPECT_GT(mbps, 7.5);
  EXPECT_EQ(net.router(r).unrouted_packets(), 0u);
  EXPECT_GT(net.source(0).bytes_acked(), 0);
  EXPECT_GT(net.sink(0).acks_sent(), 100u);
}

TEST(TcpNetworkTest, MultiHopPathDelivers) {
  Simulator sim;
  TcpNetwork net{sim};
  const auto a = net.add_router("a");
  const auto b = net.add_router("b");
  const auto t = net.add_trunk(a, b, {});
  const auto s = net.add_sink_node(b, {});
  net.add_flow(a, {t}, s);
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::sec(1));
  EXPECT_GT(net.delivered_bytes(0), 400'000);  // ~4.4 Mb/s incl. slow-start/RTO transient
  EXPECT_GT(net.trunk_port(t).packets_transmitted(), 500u);
}

TEST(TcpNetworkTest, PathValidation) {
  Simulator sim;
  TcpNetwork net{sim};
  const auto a = net.add_router("a");
  const auto b = net.add_router("b");
  const auto c = net.add_router("c");
  const auto t_bc = net.add_trunk(b, c, {});
  const auto s_at_c = net.add_sink_node(c, {});
  EXPECT_THROW(net.add_flow(a, {t_bc}, s_at_c), std::invalid_argument);
  const auto s_at_b = net.add_sink_node(b, {});
  EXPECT_THROW(net.add_flow(b, {t_bc}, s_at_b), std::invalid_argument);
  EXPECT_THROW(net.add_flow(a, {}, 99), std::out_of_range);
}

TEST(TcpNetworkTest, RetransmissionsRecoverFromOverflowDrops) {
  // Tiny bottleneck buffer: drops are guaranteed, yet everything is
  // eventually delivered in order.
  Simulator sim;
  TcpNetwork net{sim};
  const auto r = net.add_router("r0");
  TcpTrunkOptions opts;
  opts.queue_limit = 5;
  const auto s = net.add_sink_node(r, opts);
  net.add_flow(r, {}, s);
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::sec(2));
  EXPECT_GT(net.sink_port(s).packets_dropped(), 0u);
  EXPECT_GT(net.source(0).fast_retransmits() + net.source(0).timeouts(), 0u);
  EXPECT_GT(net.delivered_bytes(0), 1'000'000);
}

TEST(TcpNetworkTest, TwoFlowsShareRoughlyEvenlyWithSameRtt) {
  Simulator sim;
  TcpNetwork net{sim};
  const auto r = net.add_router("r0");
  const auto s = net.add_sink_node(r, {});
  net.add_flow(r, {}, s);
  net.add_flow(r, {}, s);
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::sec(5));
  const double a = static_cast<double>(net.delivered_bytes(0));
  const double b = static_cast<double>(net.delivered_bytes(1));
  EXPECT_GT(std::min(a, b) / std::max(a, b), 0.5);
}

}  // namespace
}  // namespace phantom::tcp
