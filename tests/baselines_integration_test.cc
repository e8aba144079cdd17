// End-to-end behaviour of the EPRCA / APRC / CAPC baselines on the
// paper's configurations, and the comparative claims of §5.
#include <gtest/gtest.h>

#include "exp/factories.h"
#include "exp/probes.h"
#include "exp/scenario.h"
#include "sim/simulator.h"
#include "stats/fairness.h"
#include "stats/series.h"
#include "topo/abr_network.h"

namespace phantom::exp {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;
using topo::AbrNetwork;

class AllAlgorithms : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AllAlgorithms, TwoGreedySessionsShareFairly) {
  Simulator sim;
  auto b = Scenario{.algorithm = GetParam(), .sessions = 2}.build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(300));
  GoodputProbe probe{sim, b.net};
  probe.mark();
  sim.run_until(Time::ms(500));
  const auto rates = probe.rates_mbps();
  EXPECT_GT(stats::jain_index(rates), 0.90) << to_string(GetParam());
  // Aggregate goodput within a sane band: above half the link, at most
  // the link rate.
  EXPECT_GT(probe.total_mbps(), 75.0) << to_string(GetParam());
  EXPECT_LT(probe.total_mbps(), 151.0) << to_string(GetParam());
}

TEST_P(AllAlgorithms, FairShareEstimateIsLive) {
  Simulator sim;
  auto b = Scenario{.algorithm = GetParam(), .sessions = 2}.build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(200));
  const auto share =
      b.port.controller().fair_share().mbits_per_sec();
  EXPECT_GT(share, 1.0) << to_string(GetParam());
  EXPECT_LE(share, 150.0) << to_string(GetParam());
}

TEST_P(AllAlgorithms, TenSessionsRemainFairAndStable) {
  Simulator sim;
  auto b = Scenario{.algorithm = GetParam(), .sessions = 10}.build(sim);
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  GoodputProbe probe{sim, b.net};
  probe.mark();
  sim.run_until(Time::ms(600));
  EXPECT_GT(stats::jain_index(probe.rates_mbps()), 0.85)
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AllAlgorithms,
                         ::testing::Values(Algorithm::kPhantom,
                                           Algorithm::kEprca,
                                           Algorithm::kAprc,
                                           Algorithm::kCapc),
                         [](const auto& info) { return to_string(info.param); });

TEST(ComparisonTest, PhantomRampsFasterThanCapc) {
  // Fig. 22's qualitative claim: CAPC's bounded multiplicative steps
  // converge more slowly than Phantom's residual-proportional steps, so
  // early goodput is lower.
  auto early_goodput = [](Algorithm alg) {
    Simulator sim;
    auto b = Scenario{.algorithm = alg, .sessions = 2}.build(sim);
    b.net.start_all(Time::zero(), Time::zero());
    GoodputProbe probe{sim, b.net};
    sim.run_until(Time::ms(5));
    probe.mark();
    sim.run_until(Time::ms(25));
    return probe.total_mbps();
  };
  EXPECT_GT(early_goodput(Algorithm::kPhantom),
            1.2 * early_goodput(Algorithm::kCapc));
}

TEST(ComparisonTest, PhantomEquilibriumBelowCapcEquilibrium) {
  // Phantom's phantom session costs one share: u_p*C/(n+1) per session,
  // CAPC gives u_c*C/n. With n = 2: 47.5 vs 67.5 Mb/s.
  auto steady = [](Algorithm alg) {
    Simulator sim;
    auto b = Scenario{.algorithm = alg, .sessions = 2}.build(sim);
    b.net.start_all(Time::zero(), Time::zero());
    sim.run_until(Time::ms(400));
    GoodputProbe probe{sim, b.net};
    probe.mark();
    sim.run_until(Time::ms(600));
    return probe.rates_mbps();
  };
  const auto phantom = steady(Algorithm::kPhantom);
  const auto capc = steady(Algorithm::kCapc);
  EXPECT_NEAR(phantom[0], 47.5, 5.0);
  EXPECT_NEAR(capc[0], 67.5, 7.0);
}

TEST(ComparisonTest, LongPathSessionNotBeatenDownByPhantom) {
  // Beat-down configuration: a long session crossing three controlled
  // hops competing with one local session per hop. Under Phantom the
  // long session receives the same share as the locals (max-min with a
  // phantom per link); binary-feedback baselines systematically
  // disadvantage it [BdJ94].
  auto run = [](Algorithm alg) {
    Simulator sim;
    AbrNetwork net{sim, make_factory(alg)};
    const auto s0 = net.add_switch("s0");
    const auto s1 = net.add_switch("s1");
    const auto s2 = net.add_switch("s2");
    const auto t01 = net.add_trunk(s0, s1, {});
    const auto t12 = net.add_trunk(s1, s2, {});
    const auto d_end = net.add_destination(s2, {});
    topo::TrunkOptions stub;
    stub.controlled = false;
    stub.rate = Rate::mbps(622);
    const auto d1 = net.add_destination(s1, stub);
    const auto d2 = net.add_destination(s2, stub);
    net.add_session(s0, {t01, t12}, d_end);  // long (3 controlled links)
    net.add_session(s0, {t01}, d1);
    net.add_session(s1, {t12}, d2);
    net.add_session(s2, {}, d_end);  // local on the last hop
    net.start_all(Time::zero(), Time::zero());
    sim.run_until(Time::ms(400));
    GoodputProbe probe{sim, net};
    probe.mark();
    sim.run_until(Time::ms(700));
    return probe.rates_mbps();
  };
  const auto phantom = run(Algorithm::kPhantom);
  // Long session and each local share every link evenly (with the
  // phantom: u*C/3 = 47.5 each).
  EXPECT_NEAR(phantom[0], 47.5, 7.0);
  const double phantom_ratio = phantom[0] / phantom[1];
  EXPECT_GT(phantom_ratio, 0.8);

  const auto eprca = run(Algorithm::kEprca);
  const double eprca_ratio = eprca[0] / eprca[1];
  // The long session must do relatively worse under EPRCA than under
  // Phantom (beat-down), by a clear margin.
  EXPECT_LT(eprca_ratio, phantom_ratio);
}

TEST(ComparisonTest, PhantomDrainsQueueEprcaOscillates) {
  // Phantom's u < 1 target drains the queue in steady state; EPRCA's
  // threshold feedback keeps the queue bouncing around QT.
  auto steady_queue = [](Algorithm alg) {
    Simulator sim;
    auto b = Scenario{.algorithm = alg, .sessions = 5}.build(sim);
    b.net.start_all(Time::zero(), Time::zero());
    sim.run_until(Time::ms(500));
    return b.port.queue_length();
  };
  EXPECT_LT(steady_queue(Algorithm::kPhantom), 30u);
  EXPECT_GT(steady_queue(Algorithm::kEprca), 30u);
}

}  // namespace
}  // namespace phantom::exp
