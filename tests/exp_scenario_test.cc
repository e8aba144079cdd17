// exp::Scenario's closed-form topology_info() against the network its
// build wires. The fault generator and e2ebench size their target ranges
// from topology_info(), so the two descriptions must not drift apart.
// The paper's Fig 7-8 lot and Fig 17 chain are pinned link by link.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "tcp/queue_policy.h"

namespace phantom::exp {
namespace {

[[nodiscard]] bool controlled(atm::OutputPort& port) {
  return port.controller().name() != "null";
}

TEST(ScenarioTest, TopologyInfoMatchesTheBuiltNetwork) {
  for (const auto kind : {Scenario::Kind::kBottleneck, Scenario::Kind::kParking,
                          Scenario::Kind::kPaperLot}) {
    for (int n = 1; n <= 12; ++n) {
      SCOPED_TRACE(to_string(kind) + ", " + std::to_string(n) + " sessions");
      const Scenario spec{.kind = kind, .sessions = n};
      const TopologyInfo info = topology_info(spec);
      sim::Simulator sim;
      auto [net, port] = spec.build(sim);
      ASSERT_EQ(net.num_trunks(), info.trunks);
      ASSERT_EQ(net.num_destinations(), info.dests);
      EXPECT_EQ(net.num_sessions(), info.sessions);
      for (std::size_t t = 0; t < info.trunks; ++t) {
        EXPECT_TRUE(controlled(net.trunk_port(t))) << "trunk " << t;
      }
      for (std::size_t d = 0; d < info.dests; ++d) {
        EXPECT_EQ(controlled(net.dest_port(d)), d < info.controlled_dests)
            << "dest " << d;
      }
      EXPECT_EQ(&port, kind == Scenario::Kind::kBottleneck
                           ? &net.dest_port(0)
                           : &net.trunk_port(0));
    }
  }
}

TEST(ScenarioTest, EveryKindReadsBackFromItsName) {
  // kPaperLot is the last kind: phantom_cli and phantom_chaos take
  // each by the name a chaos report's replay line prints.
  for (int i = 0; i <= static_cast<int>(Scenario::Kind::kPaperLot); ++i) {
    const auto kind = static_cast<Scenario::Kind>(i);
    SCOPED_TRACE(to_string(kind));
    EXPECT_NE(to_string(kind), "?");
    EXPECT_EQ(kind_from_string(to_string(kind)), kind);
  }
  EXPECT_EQ(kind_from_string("?"), std::nullopt);
  EXPECT_EQ(kind_from_string("onoff"), std::nullopt);  // a phantom_cli mode
}

TEST(ScenarioTest, PaperLotIsTheFig7Lot) {
  const Scenario spec{.kind = Scenario::Kind::kPaperLot,
                      .sessions = 4,
                      .lot_rates_mbps = {150, 45, 150}};
  sim::Simulator sim;
  auto [net, port] = spec.build(sim);
  ASSERT_EQ(net.num_switches(), 3u);
  EXPECT_EQ(net.trunk_port(0).rate(), sim::Rate::mbps(150));
  EXPECT_EQ(net.trunk_port(1).rate(), sim::Rate::mbps(45));
  EXPECT_EQ(net.dest_port(0).rate(), sim::Rate::mbps(150));
  EXPECT_EQ(net.dest_port(1).rate(), sim::Rate::mbps(622));
  EXPECT_EQ(net.dest_port(2).rate(), sim::Rate::mbps(622));
  // The solver sees the paths: the long session (0) and the local on
  // the narrow trunk (2) split it with its phantom; the locals on the
  // 150 Mb/s links (1, 3) share the rest with theirs.
  const auto ref = net.reference_rates(true, 0.95);
  ASSERT_EQ(ref.size(), 4u);
  EXPECT_NEAR(ref[0].mbits_per_sec(), 0.95 * 45 / 3, 1e-6);
  EXPECT_NEAR(ref[2].mbits_per_sec(), 0.95 * 45 / 3, 1e-6);
  EXPECT_NEAR(ref[1].mbits_per_sec(), (0.95 * 150 - 0.95 * 45 / 3) / 2, 1e-6);
  EXPECT_NEAR(ref[3].mbits_per_sec(), (0.95 * 150 - 0.95 * 45 / 3) / 2, 1e-6);
}

TEST(ScenarioTest, LotRatesWantOnePerLinkOfThePaperLot) {
  const Scenario short_list{.kind = Scenario::Kind::kPaperLot,
                            .sessions = 4,
                            .lot_rates_mbps = {150, 45}};
  const Scenario other_kind{.kind = Scenario::Kind::kParking,
                            .sessions = 4,
                            .lot_rates_mbps = {150, 45, 150}};
  sim::Simulator sim;
  EXPECT_THROW((void)short_list.build(sim), std::invalid_argument);
  EXPECT_THROW((void)other_kind.build(sim), std::invalid_argument);
}

/// What one policed chain port saw: its rate and buffer, and the first
/// arrival of each flow.
struct PortLog {
  sim::Rate rate;
  std::size_t limit = 0;
  std::map<int, sim::Time> first{};
};

class RecordingPolicy final : public tcp::QueuePolicy {
 public:
  RecordingPolicy(sim::Simulator& sim, PortLog& log) : sim_{&sim}, log_{&log} {}
  tcp::Verdict on_arrival(const tcp::Packet& packet, std::size_t,
                          std::size_t limit) override {
    log_->limit = limit;
    log_->first.try_emplace(packet.flow, sim_->now());
    return tcp::Verdict::accept();
  }
  [[nodiscard]] std::string name() const override { return "recording"; }

 private:
  sim::Simulator* sim_;
  PortLog* log_;
};

TEST(ScenarioTest, TcpChainIsTheFig17Chain) {
  std::deque<PortLog> logs;  // one per policed port, in build order
  const TcpScenario spec{
      .kind = TcpScenario::Kind::kChain,
      .policy = [&](sim::Simulator& sim, sim::Rate rate) {
        logs.push_back({.rate = rate});
        return std::make_unique<RecordingPolicy>(sim, logs.back());
      }};
  sim::Simulator sim;
  auto [net, port] = spec.build(sim);
  ASSERT_EQ(net.num_flows(), 4u);
  EXPECT_EQ(&port, &net.trunk_port(0));
  sim.run_until(sim::Time::ms(400));

  // t01, t12, then the end sink's port. The long flow 0 crosses all
  // three; each local crosses one.
  ASSERT_EQ(logs.size(), 3u);
  const std::vector<std::vector<int>> flows = {{0, 1}, {0, 2}, {0, 3}};
  for (std::size_t p = 0; p < logs.size(); ++p) {
    SCOPED_TRACE("policed port " + std::to_string(p));
    EXPECT_EQ(logs[p].rate, spec.rate);
    EXPECT_EQ(logs[p].limit, spec.buffer);
    std::vector<int> seen;
    for (const auto& [flow, at] : logs[p].first) seen.push_back(flow);
    EXPECT_EQ(seen, flows[p]);
  }
  // Flow f starts at 73·f ms and enters its first router over a 1 ms
  // access link: flows 0 and 1 at r0 (t01), 2 at r1 (t12), 3 at r2.
  const std::size_t entry[] = {0, 0, 1, 2};
  for (int f = 0; f < 4; ++f) {
    const sim::Time at = logs[entry[f]].first.at(f);
    EXPECT_GE(at, sim::Time::ms(73 * f + 1)) << "flow " << f;
    EXPECT_LT(at, sim::Time::ms(73 * f + 2)) << "flow " << f;
  }
  // The long flow's first packet reaches t12 one packet time (0.44 ms
  // at 10 Mb/s) plus t01's 3 ms delay after it reached t01.
  const sim::Time hop = logs[1].first.at(0) - logs[0].first.at(0);
  EXPECT_GE(hop, sim::Time::ms(3));
  EXPECT_LT(hop, sim::Time::ms(4));
  // Locals 1 and 2 leave through drop-tail stubs at r1 and r2.
  for (std::size_t stub = 1; stub <= 2; ++stub) {
    EXPECT_EQ(net.sink_port(stub).policy().name(), "droptail");
    EXPECT_EQ(net.sink_port(stub).rate(), sim::Rate::mbps(100));
    EXPECT_GT(net.sink_port(stub).packets_transmitted(), 0u);
  }
}

TEST(ScenarioTest, TcpChainCountsItsFlowsAsThePaperLotCountsSessions) {
  for (int n = 1; n <= 8; ++n) {
    SCOPED_TRACE(std::to_string(n) + " flows");
    const TcpScenario spec{.kind = TcpScenario::Kind::kChain, .flows = n};
    sim::Simulator sim;
    auto [net, port] = spec.build(sim);
    EXPECT_EQ(net.num_flows(),
              topology_info({.kind = Scenario::Kind::kPaperLot, .sessions = n})
                  .sessions);
    EXPECT_EQ(&port, &net.trunk_port(0));
  }
}

}  // namespace
}  // namespace phantom::exp
