// End-to-end tests of the Phantom control loop over the full ABR
// substrate: sources pace cells, RM cells loop through switches, the
// controller measures residual bandwidth and writes ER feedback.
#include <gtest/gtest.h>

#include <vector>

#include "core/phantom_controller.h"
#include "exp/probes.h"
#include "exp/scenario.h"
#include "sim/simulator.h"
#include "stats/fairness.h"
#include "stats/series.h"
#include "topo/abr_network.h"
#include "topo/workload.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;
using exp::GoodputProbe;
using exp::Scenario;
using topo::AbrNetwork;

TEST(PhantomIntegrationTest, TwoGreedySessionsConvergeToUCOver3) {
  Simulator sim;
  auto b = Scenario{.sessions = 2}.build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(300));
  GoodputProbe probe{sim, b.net};
  probe.mark();
  sim.run_until(Time::ms(400));
  const auto rates = probe.rates_mbps();
  // Phantom equilibrium: u*C/(n+1) = 0.95*150/3 = 47.5 Mb/s each.
  for (const double r : rates) EXPECT_NEAR(r, 47.5, 4.0);
  EXPECT_GT(stats::jain_index(rates), 0.999);
}

TEST(PhantomIntegrationTest, MacrConvergesToPredictedEquilibrium) {
  Simulator sim;
  auto b = Scenario{.sessions = 2}.build(sim);
  sim::Trace macr;
  b.port.controller().set_rate_trace(&macr, sim.now());
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  const auto tail =
      stats::summarize(macr.samples(), Time::ms(300), Time::ms(400));
  EXPECT_NEAR(tail.mean / 1e6, 47.5, 3.0);
}

TEST(PhantomIntegrationTest, LateJoinerGetsEqualShare) {
  Simulator sim;
  auto b = Scenario{.sessions = 3}.build(sim);
  // Session 2 joins 100 ms late.
  b.net.source(0).start(Time::zero());
  b.net.source(1).start(Time::zero());
  b.net.source(2).start(Time::ms(100));
  sim.run_until(Time::ms(400));
  GoodputProbe probe{sim, b.net};
  probe.mark();
  sim.run_until(Time::ms(500));
  const auto rates = probe.rates_mbps();
  // u*C/4 = 35.625 each.
  for (const double r : rates) EXPECT_NEAR(r, 35.6, 4.0);
  EXPECT_GT(stats::jain_index(rates), 0.999);
}

TEST(PhantomIntegrationTest, DepartingSessionFreesBandwidth) {
  Simulator sim;
  auto b = Scenario{.sessions = 2}.build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  sim.schedule_at(Time::ms(250), [&] { b.net.source(1).set_active(false); });
  sim.run_until(Time::ms(500));
  GoodputProbe probe{sim, b.net};
  probe.mark();
  sim.run_until(Time::ms(600));
  const auto rates = probe.rates_mbps();
  // Lone survivor converges to u*C/2 = 71.25.
  EXPECT_NEAR(rates[0], 71.25, 6.0);
  EXPECT_NEAR(rates[1], 0.0, 0.1);
}

TEST(PhantomIntegrationTest, QueueStaysModerateAndDrains) {
  Simulator sim;
  auto b = Scenario{.sessions = 5}.build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(500));
  const auto& port = b.port;
  // "Moderate queue": bounded well below 1000 cells for 5 sessions with
  // tiny RTT, and fully drained in steady state thanks to u < 1.
  EXPECT_LT(port.max_queue_length(), 1000u);
  EXPECT_LT(port.queue_length(), 20u);
  EXPECT_EQ(port.cells_dropped(), 0u);
}

TEST(PhantomIntegrationTest, UtilizationApproachesTargetAsNGrows) {
  Simulator sim;
  auto b = Scenario{.sessions = 9}.build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  GoodputProbe probe{sim, b.net};
  probe.mark();
  sim.run_until(Time::ms(600));
  double total = 0;
  for (const double r : probe.rates_mbps()) total += r;
  // n/(n+1) * u * C = 0.9 * 142.5 = 128.25 Mb/s aggregate.
  EXPECT_NEAR(total, 128.25, 8.0);
}

TEST(PhantomIntegrationTest, HeterogeneousRttStaysFair) {
  // One session with ~8 us access RTT, one with ~4 ms: goodputs must
  // still match (the paper's RTT-insensitivity claim).
  Simulator sim;
  AbrNetwork net{sim, exp::make_phantom_factory({})};
  const auto sw = net.add_switch("sw");
  const auto d = net.add_destination(sw, {});
  net.add_session(sw, {}, d, {}, /*access_delay=*/Time::us(2));
  net.add_session(sw, {}, d, {}, /*access_delay=*/Time::ms(1));
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  GoodputProbe probe{sim, net};
  probe.mark();
  sim.run_until(Time::ms(600));
  const auto rates = probe.rates_mbps();
  EXPECT_GT(stats::jain_index(rates), 0.99);
  EXPECT_NEAR(rates[0], rates[1], 0.1 * rates[0]);
}

TEST(PhantomIntegrationTest, ParkingLotMatchesMaxMinReference) {
  // 3 switches, long session across both trunks + dest link; one local
  // session per hop. Compare goodputs with the phantom-augmented
  // max-min reference computed by the solver.
  Simulator sim;
  AbrNetwork net{sim, exp::make_phantom_factory({})};
  const auto s0 = net.add_switch("s0");
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  const auto t01 = net.add_trunk(s0, s1, {});
  const auto t12 = net.add_trunk(s1, s2, {});
  const auto d_end = net.add_destination(s2, {});  // controlled last hop
  // Exit stubs for locals: uncontrolled, generous.
  topo::TrunkOptions stub;
  stub.controlled = false;
  stub.rate = Rate::mbps(622);
  const auto d1 = net.add_destination(s1, stub);
  const auto d2 = net.add_destination(s2, stub);

  net.add_session(s0, {t01, t12}, d_end);  // long session
  net.add_session(s0, {t01}, d1);          // local hop 1
  net.add_session(s1, {t12}, d2);          // local hop 2
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  GoodputProbe probe{sim, net};
  probe.mark();
  sim.run_until(Time::ms(600));
  const auto rates = probe.rates_mbps();

  const auto ref = net.reference_rates(/*phantom_per_link=*/true, 0.95);
  ASSERT_EQ(ref.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_NEAR(rates[s], ref[s].mbits_per_sec(),
                0.15 * ref[s].mbits_per_sec())
        << "session " << s;
  }
}

TEST(PhantomIntegrationTest, OnOffSessionsReconverge) {
  // Fig. 4 configuration: greedy sessions plus an on/off session. After
  // each toggle the network must re-converge; queues stay bounded.
  Simulator sim;
  auto b = Scenario{.sessions = 3}.build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  topo::OnOffDriver::Options opt;
  opt.on_period = Time::ms(60);
  opt.off_period = Time::ms(60);
  opt.first_toggle = Time::ms(60);
  topo::OnOffDriver driver{sim, b.net.source(2), opt};
  sim.run_until(Time::ms(365));
  EXPECT_GE(driver.toggles(), 5u);
  // Toggles land at 60 (off), 120 (on), 180, 240, 300, 360 (on), 420:
  // measure inside the 360-420 ms ON phase, leaving 10 ms to re-ramp.
  GoodputProbe probe{sim, b.net};
  sim.run_until(Time::ms(370));
  probe.mark();
  sim.run_until(Time::ms(415));
  const auto on_rates = probe.rates_mbps();
  EXPECT_GT(on_rates[2], 15.0);  // on/off session is getting bandwidth again
  EXPECT_LT(b.port.max_queue_length(), 2000u);
  EXPECT_EQ(b.port.cells_dropped(), 0u);
}

TEST(PhantomIntegrationTest, BinaryModeStillControlsAndShares) {
  // The CI-bit variant: no ER clamping, only EFCI marks latched by the
  // destination into returning RM cells. Sources then oscillate in the
  // classic additive-increase / multiplicative-decrease sawtooth around
  // the fair share; fairness holds, utilization is rougher than ER mode.
  Simulator sim;
  core::PhantomConfig cfg;
  cfg.explicit_rate_mode = false;
  auto b = Scenario{.sessions = 3,
                    .factory_override = exp::make_phantom_factory(cfg)}
               .build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  GoodputProbe probe{sim, b.net};
  probe.mark();
  sim.run_until(Time::ms(700));
  const auto rates = probe.rates_mbps();
  EXPECT_GT(stats::jain_index(rates), 0.95);
  double total = 0;
  for (const double r : rates) total += r;
  // Bounded utilization: above half the target, at most the link rate.
  EXPECT_GT(total, 0.5 * 142.5);
  EXPECT_LT(total, 150.0);
  // The queue must stay bounded (the whole point of feedback).
  EXPECT_LT(b.port.max_queue_length(), 20'000u);
}

// Parameterized sweep: convergence to u*C/(n+1) for a range of session
// counts (the paper's basic experiment at several scales).
class ConvergenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConvergenceSweep, GoodputMatchesNPlusOneRule) {
  const int n = GetParam();
  Simulator sim;
  auto b = Scenario{.sessions = n}.build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  GoodputProbe probe{sim, b.net};
  probe.mark();
  sim.run_until(Time::ms(600));
  const auto rates = probe.rates_mbps();
  const double expect = 0.95 * 150.0 / (n + 1);
  for (const double r : rates) EXPECT_NEAR(r, expect, 0.15 * expect);
  EXPECT_GT(stats::jain_index(rates), 0.995);
}

INSTANTIATE_TEST_SUITE_P(Counts, ConvergenceSweep,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace phantom
