// exp::Scenario's closed-form topology_info() against the network its
// build wires. The fault generator and e2ebench size their target ranges
// from topology_info(), so the two descriptions must not drift apart.
#include <gtest/gtest.h>

#include <string>

#include "exp/scenario.h"

namespace phantom::exp {
namespace {

[[nodiscard]] bool controlled(atm::OutputPort& port) {
  return port.controller().name() != "null";
}

TEST(ScenarioTest, TopologyInfoMatchesTheBuiltNetwork) {
  for (const auto kind :
       {Scenario::Kind::kBottleneck, Scenario::Kind::kParking}) {
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

}  // namespace
}  // namespace phantom::exp
