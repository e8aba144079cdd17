#include "tcp/router.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"
#include "tcp/packet_port.h"
#include "tcp/phantom_policies.h"

namespace phantom::tcp {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

class Collector final : public PacketSink {
 public:
  void receive_packet(const Packet& p) override { packets.push_back(p); }
  std::vector<Packet> packets;
};

struct RouterFixture {
  Simulator sim;
  Collector fwd, bwd;
  Router router{sim, "r0"};
  std::size_t fwd_port, bwd_port;

  explicit RouterFixture(std::unique_ptr<QueuePolicy> policy = nullptr) {
    fwd_port = router.add_port(Rate::mbps(10), 64,
                               PacketLink{sim, Time::zero(), fwd},
                               std::move(policy));
    bwd_port = router.add_port(Rate::mbps(10), 64,
                               PacketLink{sim, Time::zero(), bwd}, nullptr);
    router.route_flow(1, fwd_port, bwd_port);
  }
};

TEST(PacketPortTest, SerializesAtLinkRate) {
  Simulator sim;
  Collector sink;
  PacketPort port{sim, Rate::mbps(10), 64, PacketLink{sim, Time::zero(), sink},
                  nullptr};
  port.send(Packet::data(1, 0, 512));
  sim.run();
  // 552 bytes at 10 Mb/s = 441.6 us.
  EXPECT_NEAR(sim.now().microseconds(), 441.6, 0.1);
  EXPECT_EQ(port.packets_transmitted(), 1u);
}

TEST(PacketPortTest, OverflowDropsAndCounts) {
  Simulator sim;
  Collector sink;
  PacketPort port{sim, Rate::mbps(10), 2, PacketLink{sim, Time::zero(), sink},
                  nullptr};
  for (int i = 0; i < 5; ++i) port.send(Packet::data(1, 512 * i, 512));
  EXPECT_EQ(port.packets_dropped(), 3u);
  sim.run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(port.max_queue_length(), 2u);
}

TEST(PacketPortTest, DefaultPolicyIsDropTail) {
  Simulator sim;
  Collector sink;
  PacketPort port{sim, Rate::mbps(10), 4, PacketLink{sim, Time::zero(), sink},
                  nullptr};
  EXPECT_EQ(port.policy().name(), "droptail");
}

/// Drops every data packet; never touches anything else.
class DropAllDataPolicy final : public QueuePolicy {
 public:
  Verdict on_arrival(const Packet&, std::size_t, std::size_t) override {
    return Verdict::discard();
  }
  [[nodiscard]] std::string name() const override { return "drop-all"; }
};

TEST(PacketPortTest, AcksBypassThePolicy) {
  // A policy that drops every data packet must not touch ACKs.
  Simulator sim;
  Collector sink;
  PacketPort port{sim, Rate::mbps(10), 64, PacketLink{sim, Time::zero(), sink},
                  std::make_unique<DropAllDataPolicy>()};
  port.send(Packet::data(1, 0, 512));
  port.send(Packet::make_ack(1, 512));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].kind, PacketKind::kAck);
}

TEST(RouterTest, DataForwardAcksBackward) {
  RouterFixture f;
  f.router.receive_packet(Packet::data(1, 0, 512));
  f.router.receive_packet(Packet::make_ack(1, 512));
  f.sim.run();
  ASSERT_EQ(f.fwd.packets.size(), 1u);
  EXPECT_EQ(f.fwd.packets[0].kind, PacketKind::kData);
  ASSERT_EQ(f.bwd.packets.size(), 1u);
  EXPECT_EQ(f.bwd.packets[0].kind, PacketKind::kAck);
}

TEST(RouterTest, SourceQuenchRoutedBackward) {
  RouterFixture f;
  f.router.receive_packet(Packet::source_quench(1));
  f.sim.run();
  ASSERT_EQ(f.bwd.packets.size(), 1u);
  EXPECT_EQ(f.bwd.packets[0].kind, PacketKind::kSourceQuench);
}

TEST(RouterTest, PolicyQuenchRequestInjectedOntoBackwardPath) {
  Simulator sim;
  Collector fwd, bwd;
  Router router{sim, "r"};
  core::PhantomConfig cfg;
  cfg.initial_macr = Rate::kbps(1);  // everything over-rate
  auto policy = std::make_unique<SelectiveQuenchPolicy>(
      sim, Rate::mbps(10), 1.0, Time::ms(1), cfg);
  const auto fp = router.add_port(Rate::mbps(10), 64,
                                  PacketLink{sim, Time::zero(), fwd},
                                  std::move(policy));
  const auto bp = router.add_port(Rate::mbps(10), 64,
                                  PacketLink{sim, Time::zero(), bwd}, nullptr);
  router.route_flow(1, fp, bp);
  Packet data = Packet::data(1, 0, 512);
  data.cr = Rate::mbps(5);
  router.receive_packet(data);
  sim.run_until(Time::ms(5));  // the meter timer never drains; bound the run
  // The data packet was forwarded AND a quench went backward.
  EXPECT_EQ(fwd.packets.size(), 1u);
  ASSERT_EQ(bwd.packets.size(), 1u);
  EXPECT_EQ(bwd.packets[0].kind, PacketKind::kSourceQuench);
  EXPECT_EQ(bwd.packets[0].flow, 1);
  EXPECT_EQ(router.quenches_injected(), 1u);
}

TEST(RouterTest, UnroutedPacketsCounted) {
  RouterFixture f;
  f.router.receive_packet(Packet::data(99, 0, 512));
  EXPECT_EQ(f.router.unrouted_packets(), 1u);
}

TEST(RouterTest, DuplicateRouteRejected) {
  RouterFixture f;
  EXPECT_THROW(f.router.route_flow(1, f.fwd_port, f.bwd_port),
               std::invalid_argument);
}

TEST(RouterTest, BadPortIndexRejected) {
  RouterFixture f;
  EXPECT_THROW(f.router.route_flow(2, 9, 0), std::out_of_range);
}

TEST(RouterTest, NegativeFlowIdRejected) {
  RouterFixture f;
  EXPECT_THROW(f.router.route_flow(-1, f.fwd_port, f.bwd_port),
               std::out_of_range);
  f.router.receive_packet(Packet::data(-1, 0, 512));
  EXPECT_EQ(f.router.unrouted_packets(), 1u);
}

// Routes sit in a table indexed by flow id; a packet of an unrouted flow
// is counted whether its id falls inside that table, below zero or far
// beyond it, and goes nowhere.
TEST(RouterTest, UnroutedFlowsCountedWhateverTheirId) {
  RouterFixture f;  // routes flow 1 only
  f.router.receive_packet(Packet::data(0, 0, 512));
  f.router.receive_packet(Packet::make_ack(-7, 512));
  f.router.receive_packet(Packet::source_quench(1 << 20));
  f.sim.run();
  EXPECT_EQ(f.router.unrouted_packets(), 3u);
  EXPECT_TRUE(f.fwd.packets.empty());
  EXPECT_TRUE(f.bwd.packets.empty());
}

}  // namespace
}  // namespace phantom::tcp
