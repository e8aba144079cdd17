// End-to-end tests of the paper's §4 TCP mechanisms: Selective Discard
// (Fig. 14/17), Selective Source Quench (Fig. 9), EFCI (Fig. 11) and
// Selective RED, against the drop-tail baseline.
//
// Scenario (per §4.3, with RTTs scaled to give workable per-flow
// windows): four greedy Reno flows, 512-byte packets, one 10 Mb/s
// bottleneck, heterogeneous access delays 3/6/12/24 ms, staggered
// starts. Drop-tail produces strongly RTT-biased shares; the Phantom
// mechanisms equalize them without touching the TCP window code.
#include <gtest/gtest.h>

#include <vector>

#include "exp/scenario.h"
#include "sim/simulator.h"
#include "stats/fairness.h"
#include "tcp/phantom_policies.h"
#include "tcp/tcp_network.h"

namespace phantom::tcp {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

// Larger-than-default factor for test robustness; the bench sweeps the
// factor and shows 5-10 behave alike (see bench_tab_tcp_factor).
constexpr double kUf = 10.0;

PolicyFactory discard_factory(double factor = kUf) {
  return [factor](Simulator& sim, Rate rate) {
    return std::make_unique<SelectiveDiscardPolicy>(sim, rate, factor);
  };
}

PolicyFactory quench_factory(double factor = kUf) {
  return [factor](Simulator& sim, Rate rate) {
    return std::make_unique<SelectiveQuenchPolicy>(sim, rate, factor,
                                                   Time::ms(10));
  };
}

PolicyFactory efci_factory(double factor = kUf) {
  return [factor](Simulator& sim, Rate rate) {
    return std::make_unique<EfciMarkPolicy>(sim, rate, factor);
  };
}

PolicyFactory sel_red_factory(double factor = kUf) {
  return [factor](Simulator& sim, Rate rate) {
    return std::make_unique<SelectiveRedPolicy>(sim, rate, factor);
  };
}

/// One run of the §4.3 scenario on a fresh simulator.
exp::TcpRun run(const exp::TcpScenario& spec) {
  Simulator sim;
  return spec.run(sim);
}

TEST(TcpMechanismsTest, DropTailIsRttBiased) {
  const auto r = run({});
  // Fig. 14 left: heterogeneous RTTs make drop-tail visibly unfair.
  EXPECT_LT(r.jain, 0.80);
  // ...while utilization is high (that is drop-tail's one virtue).
  EXPECT_GT(r.total, 7.5);
}

TEST(TcpMechanismsTest, SelectiveDiscardEqualizesAcrossRtts) {
  const auto droptail = run({});
  const auto discard = run({.policy = discard_factory()});
  EXPECT_GT(discard.jain, droptail.jain);
  EXPECT_GT(discard.jain, 0.85);
  EXPECT_GT(discard.total, 5.5);  // moderate utilization cost
}

TEST(TcpMechanismsTest, SelectiveRedEqualizesAcrossRtts) {
  const auto droptail = run({});
  const auto red = run({.policy = sel_red_factory()});
  EXPECT_GT(red.jain, droptail.jain);
  EXPECT_GT(red.total, 5.0);
}

TEST(TcpMechanismsTest, SelectiveQuenchImprovesFairness) {
  const auto droptail = run({});
  const auto quench = run({.policy = quench_factory()});
  EXPECT_GT(quench.jain, droptail.jain);
  EXPECT_GT(quench.total, 4.0);
}

TEST(TcpMechanismsTest, EfciImprovesFairness) {
  const auto droptail = run({});
  const auto efci = run({.policy = efci_factory()});
  EXPECT_GT(efci.jain, droptail.jain);
  EXPECT_GT(efci.total, 5.0);
}

TEST(TcpMechanismsTest, SelectiveDiscardControlsTheQueue) {
  // "Avoids congestion even in drop tail routers": drop-tail rides the
  // buffer limit; the gated selective policy keeps the peak queue
  // below it.
  const auto droptail = run({.buffer = 100});
  const auto discard = run({.buffer = 100, .policy = discard_factory()});
  EXPECT_EQ(droptail.max_queue, 100u);  // drop-tail rides the limit
  // Drop-tail parks the queue near the limit; the gated policy keeps the
  // *typical* occupancy markedly lower (transient peaks still occur).
  EXPECT_LT(discard.mean_queue, 0.75 * droptail.mean_queue);
}

TEST(TcpMechanismsTest, BeatDownChainDropTailVsSelectiveDiscard) {
  // Fig. 17 configuration: one long flow crossing three congested
  // routers vs one local flow per hop.
  auto run_chain = [](PolicyFactory policy_factory) {
    Simulator sim;
    TcpNetwork net{sim};
    const auto r0 = net.add_router("r0");
    const auto r1 = net.add_router("r1");
    const auto r2 = net.add_router("r2");
    auto mk_opts = [&] {
      TcpTrunkOptions o;
      o.queue_limit = 60;
      o.delay = Time::ms(3);
      if (policy_factory) o.policy = policy_factory;
      return o;
    };
    const auto t01 = net.add_trunk(r0, r1, mk_opts());
    const auto t12 = net.add_trunk(r1, r2, mk_opts());
    const auto s_end = net.add_sink_node(r2, mk_opts());
    TcpTrunkOptions stub;  // uncontrolled, fat exit for locals
    stub.rate = Rate::mbps(100);
    stub.queue_limit = 1000;
    const auto s1 = net.add_sink_node(r1, stub);
    const auto s2 = net.add_sink_node(r2, stub);
    net.add_flow(r0, {t01, t12}, s_end);  // long flow
    net.add_flow(r0, {t01}, s1);
    net.add_flow(r1, {t12}, s2);
    net.add_flow(r2, {}, s_end);
    net.start_all(Time::zero(), Time::ms(73));
    sim.run_until(Time::sec(3));
    std::vector<std::int64_t> base;
    for (std::size_t f = 0; f < net.num_flows(); ++f) {
      base.push_back(net.delivered_bytes(f));
    }
    sim.run_until(Time::sec(12));
    std::vector<double> mbps;
    for (std::size_t f = 0; f < net.num_flows(); ++f) {
      mbps.push_back(static_cast<double>(net.delivered_bytes(f) - base[f]) *
                     8.0 / 9.0 / 1e6);
    }
    return mbps;
  };
  const auto droptail = run_chain(nullptr);
  const auto discard = run_chain(discard_factory());
  const double dt_share = droptail[0] / (droptail[1] + droptail[2] + 1e-9);
  const double sd_share = discard[0] / (discard[1] + discard[2] + 1e-9);
  // Selective Discard lifts the long flow's relative share.
  EXPECT_GT(sd_share, dt_share);
}

TEST(TcpMechanismsTest, QuenchesActuallyFlow) {
  Simulator sim;
  TcpNetwork net{sim};
  const auto r = net.add_router("r0");
  TcpTrunkOptions opts;
  opts.queue_limit = 60;
  opts.policy = quench_factory();
  const auto s = net.add_sink_node(r, opts);
  net.add_flow(r, {}, s, RenoConfig{}, Rate::mbps(100), Time::ms(5));
  net.add_flow(r, {}, s, RenoConfig{}, Rate::mbps(100), Time::ms(10));
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::sec(5));
  EXPECT_GT(net.router(r).quenches_injected(), 10u);
  EXPECT_GT(net.source(0).quenches_received() +
                net.source(1).quenches_received(),
            10u);
}

TEST(TcpMechanismsTest, EfciMarksReachSourcesViaAckEcho) {
  Simulator sim;
  TcpNetwork net{sim};
  const auto r = net.add_router("r0");
  TcpTrunkOptions opts;
  opts.queue_limit = 60;
  opts.policy = efci_factory();
  const auto s = net.add_sink_node(r, opts);
  net.add_flow(r, {}, s, RenoConfig{}, Rate::mbps(100), Time::ms(5));
  net.add_flow(r, {}, s, RenoConfig{}, Rate::mbps(100), Time::ms(10));
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::sec(5));
  const auto& policy =
      dynamic_cast<const EfciMarkPolicy&>(net.sink_port(s).policy());
  EXPECT_GT(policy.marks(), 50u);
}

TEST(TcpMechanismsTest, StrictModeCollapsesGoodput) {
  // The ablation behind DiscardMode's documentation: the literal
  // drop-everything-over-rate reading wipes whole windows and starves
  // the link relative to the policing mode.
  auto strict_factory = [](Simulator& sim, Rate rate) {
    return std::make_unique<SelectiveDiscardPolicy>(
        sim, rate, kUf, tcp_default_phantom_config(), DiscardMode::kStrict);
  };
  const auto strict = run({.policy = strict_factory});
  const auto police = run({.policy = discard_factory()});
  EXPECT_GT(police.total, strict.total);
}

}  // namespace
}  // namespace phantom::tcp
