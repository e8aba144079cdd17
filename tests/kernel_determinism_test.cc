// Bit-level determinism pins for the event kernel. A kernel rewrite
// that reorders same-timestamp events, changes how many events a run
// executes, or perturbs the rng consumption pattern shows up here as an
// exact-value mismatch — before it silently shifts every figure and
// chaos verdict in the repo.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "chaos/runner.h"
#include "core/phantom_config.h"
#include "exp/factories.h"
#include "exp/scenario.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_monitor.h"
#include "obs/event_log.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "tcp/phantom_policies.h"
#include "tcp/tcp_network.h"
#include "topo/abr_network.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Time;

// The chaos CLI's default scenario (bottleneck, Phantom, 3 sessions,
// 150 Mb/s, 600 ms). Its baseline share is a checked-in golden: the
// same number the fixed-seed chaos reports have always printed.
TEST(KernelDeterminismTest, BaselineShareMatchesGolden) {
  const exp::Scenario spec;
  chaos::TrialOptions opt;
  const auto base = chaos::run_baseline(spec, 1, opt);
  // chaos reports round to 3 decimals; the golden is 35.606 Mb/s.
  EXPECT_NEAR(base.settled_share_bps / 1e6, 35.606, 0.0005)
      << "kernel change perturbed the fixed-seed baseline figure";
}

// Identical seeds must give identical runs — not approximately, exactly.
TEST(KernelDeterminismTest, RepeatedTrialsAreExactlyIdentical) {
  const exp::Scenario spec;
  fault::FaultPlan plan;
  plan.outage(fault::dest(0), Time::ms(250), Time::ms(20))
      .rm_fault(fault::dest(0), Time::ms(300), Time::ms(100), 0.3, 0.1);
  chaos::TrialOptions opt;
  const auto base1 = chaos::run_baseline(spec, 7, opt);
  const auto base2 = chaos::run_baseline(spec, 7, opt);
  EXPECT_EQ(base1.settled_share_bps, base2.settled_share_bps);
  EXPECT_EQ(base1.delivered_cells, base2.delivered_cells);

  const auto r1 = chaos::run_trial(spec, 7, plan, opt, &base1);
  const auto r2 = chaos::run_trial(spec, 7, plan, opt, &base2);
  EXPECT_EQ(r1.verdict, r2.verdict);
  EXPECT_EQ(r1.events, r2.events)
      << "executed-event count diverged: same seed, same plan";
  EXPECT_EQ(r1.settled_share_mbps, r2.settled_share_mbps);
  EXPECT_EQ(r1.peak_queue_cells, r2.peak_queue_cells);
  EXPECT_EQ(r1.detail, r2.detail);
}

// Different seeds must still diverge (the determinism above is not the
// runner ignoring the seed).
TEST(KernelDeterminismTest, DifferentSeedsDiverge) {
  exp::Scenario spec;
  spec.horizon = Time::ms(600);
  chaos::TrialOptions opt;
  const auto a = chaos::run_baseline(spec, 1, opt);
  const auto b = chaos::run_baseline(spec, 2, opt);
  // Seeds drive fault-free runs identically only if the topology uses
  // no randomness at all; the settled share may match, but the runs
  // are distinguished through a faulted trial's loss pattern.
  fault::FaultPlan plan;
  plan.burst(fault::dest(0), Time::ms(100), Time::ms(300), 0.05, 0.2, 0.5);
  const auto ra = chaos::run_trial(spec, 1, plan, opt, &a);
  const auto rb = chaos::run_trial(spec, 2, plan, opt, &b);
  EXPECT_TRUE(ra.events != rb.events ||
              ra.settled_share_mbps != rb.settled_share_mbps)
      << "seed is being ignored: faulted runs came out identical";
}

// 50 Phantom sessions on one 150 Mb/s port, access delays spread
// log-evenly over 2 us - 5 ms: about a thousand cells on the access
// links at once, so every constant-delay link carries a long line of
// cells in transit. Pins the executed-event count, every session's
// delivered cells and the peak queue, and splits the events by kind
// with counters the components already keep: each source start and
// each link arrival is one event, and the rest are timers. A port
// transmission costs no event (departure-time ports) but is still
// counted: 53,728 here. Neither does a data cell reaching the
// destination (quiet arrivals): the line counts those, 50,412, the sum
// of the per-session cells below. Nor does a source's send (lazy
// pacing): the 52,299 sends are counted, and events fall from 109,592
// by the 52,249 of them that a start event did not make.
TEST(KernelDeterminismTest, LongDelayLineBottleneckMatchesGolden) {
  sim::Simulator sim{1};
  core::PhantomConfig cfg;
  cfg.min_macr_fraction = 0.02;
  topo::AbrNetwork net{sim, exp::make_phantom_factory(cfg)};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  atm::AbrParams params;
  params.air_nrm = Rate::mbps(0.5);
  constexpr int kSessions = 50;
  for (int i = 0; i < kSessions; ++i) {
    const double ns = 2e3 * std::pow(5e6 / 2e3, i / (kSessions - 1.0));
    net.add_session(sw, {}, dest, params,
                    Time::ns(static_cast<std::int64_t>(ns)));
  }
  net.start_all(Time::zero(), Time::us(97));
  sim.run_until(Time::ms(150));

  std::vector<std::uint64_t> delivered;
  for (std::size_t s = 0; s < net.num_sessions(); ++s) {
    delivered.push_back(net.delivered_cells(s));
  }
  std::uint64_t source_sends = 0;
  for (std::size_t s = 0; s < net.num_sessions(); ++s) {
    source_sends +=
        net.source(s).data_cells_sent() + net.source(s).rm_cells_sent();
  }
  std::uint64_t link_arrivals = 0;
  std::uint64_t quiet_arrivals = 0;
  net.for_each_link_state([&](const atm::LinkState& st) {
    link_arrivals += st.counters().delivered;
    quiet_arrivals += st.line.quiet_arrivals();
  });
  std::uint64_t port_transmissions = 0;
  for (std::size_t p = 0; p < net.node(sw).num_ports(); ++p) {
    port_transmissions += net.node(sw).port(p).cells_transmitted();
  }
  EXPECT_EQ(sim.events_executed(), 57343u);
  EXPECT_EQ(source_sends, 52299u);
  EXPECT_EQ(link_arrivals, 107454u);
  EXPECT_EQ(quiet_arrivals, 50412u);
  EXPECT_EQ(port_transmissions, 53728u);
  const std::uint64_t arrival_events = link_arrivals - quiet_arrivals;
  EXPECT_EQ(arrival_events, 57042u);
  const std::uint64_t starts = net.num_sessions();
  EXPECT_EQ(sim.events_executed() - starts - arrival_events, 251u)
      << "timers";
  const std::vector<std::uint64_t> golden_cells{
      1027, 1028, 1029, 1029, 1030, 1030, 1031, 1031, 1032, 1032,
      1032, 1034, 995, 996, 996, 996, 997, 998, 999, 999,
      1000, 1000, 1002, 1002, 1004, 1004, 1005, 967, 969, 970,
      971, 973, 975, 977, 979, 982, 986, 989, 992, 996,
      1000, 1005, 1010, 1017, 1023, 1031, 1040, 1053, 1066, 1083};
  EXPECT_EQ(delivered, golden_cells);
  EXPECT_EQ(std::accumulate(delivered.begin(), delivered.end(),
                            std::uint64_t{0}),
            quiet_arrivals);
  EXPECT_EQ(net.dest_port(dest).max_queue_length(), 1554u);
}

// An armoured chaos trial: the default bottleneck with overload
// protection on a 256-cell budget, sessions holding a 5 Mb/s MCR and
// sending 4-cell frames, under a fixed plan. A VC storm offers 12
// setups at 150 ms (every one admitted), the budget is squeezed to a
// fifth 1 ms later, while the storm's sessions ramp up at ICR, and a
// loss burst hits the bottleneck at 250 ms. The squeeze drives the
// ladder to exhaustion, so EPD, PPD, shedding, overflow and MCR
// protection all act. The run is wired as chaos::run_trial wires it
// (flight-recorder ring, injector, monitor every millisecond) without
// the oracles' samplers, so every counter stays readable; run_trial
// itself pins its verdict, events and sampled peak.
TEST(KernelDeterminismTest, ArmouredChaosTrialMatchesGolden) {
  exp::Scenario spec;
  spec.overload = true;
  spec.overload_options.buffer.budget_cells = 256;
  spec.abr_params.mcr = Rate::mbps(5);
  spec.abr_params.frame_cells = 4;
  fault::FaultPlan plan;
  plan.vcstorm(Time::ms(150), 12, Time::ms(200))
      .memsqueeze(Time::ms(151), 0.2, Time::ms(100))
      .burst(fault::dest(0), Time::ms(250), Time::ms(50), 0.05, 0.2, 0.5);
  constexpr std::uint64_t kSeed = 3;
  const chaos::TrialOptions opt;

  sim::Simulator sim{kSeed};
  obs::EventLog log{1024};
  exp::BuiltScenario built = spec.build(sim);
  built.net.attach_event_log(&log);
  fault::FaultInjector injector{sim, built.net};
  injector.set_event_log(&log);
  injector.apply(plan);
  fault::InvariantMonitor monitor{sim, built.net, Time::ms(1)};
  monitor.set_event_log(&log, 16);
  built.net.start_all(Time::zero(), Time::zero());
  sim::RunGuard guard = opt.watchdog;
  guard.deadline = spec.horizon;
  EXPECT_EQ(sim.run_guarded(guard), sim::RunOutcome::kDeadline);
  monitor.check_now();
  EXPECT_TRUE(monitor.violations().empty());

  EXPECT_EQ(sim.events_executed(), 192169u);
  std::vector<std::uint64_t> delivered;
  for (std::size_t s = 0; s < built.net.num_sessions(); ++s) {
    delivered.push_back(built.net.delivered_cells(s));
  }
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{
                           35613, 35600, 35623, 3911, 3921, 3924, 3901, 3913,
                           3921, 3917, 3908, 3887, 3917, 3911, 3903}));
  EXPECT_EQ(built.port.max_queue_length(), 198u);
  const atm::BufferManager& bm = *built.net.node(0).buffer_manager();
  EXPECT_EQ(bm.cells_accepted(), 165268u);
  EXPECT_EQ(bm.frames_epd_discarded(), 50u);
  EXPECT_EQ(bm.cells_ppd_discarded(), 144u);
  EXPECT_EQ(bm.cells_shed(), 33u);
  EXPECT_EQ(bm.cells_overflow_dropped(), 30u);
  EXPECT_EQ(bm.mcr_protected_cells(), 49442u);
  EXPECT_EQ(bm.peak_cells_in_use(), 198u);
  EXPECT_EQ(bm.worst_level(), atm::DegradationLevel::kExhausted);
  EXPECT_EQ(built.net.cac_totals().admitted, 12u);

  const chaos::TrialResult r = chaos::run_trial(spec, kSeed, plan, opt);
  EXPECT_EQ(r.verdict, chaos::Verdict::kPass) << r.detail;
  EXPECT_EQ(r.events, 194571u);
  EXPECT_EQ(r.peak_queue_cells, 180.0);
}

// The section 4.3 router scenario as exp::TcpScenario builds it: four
// Reno flows with 3/6/12/24 ms access delays into one 10 Mb/s
// selective-discard port, started 73 ms apart. Covers the packet links,
// including each flow's ACK return link, and the senders' lazy
// retransmission timers (sim::Timer). The router's ports are
// departure-time ports: a packet costs no event to leave one, so the
// run executes the event-driven ports' 35,459 events less one
// completion per packet the router transmitted. A lazy timer runs at
// the key an eager one filed and adds only its early wake-ups, the
// events an eager timer cancelled: 25,856 events with eager timers.
TEST(KernelDeterminismTest, TcpRouterScenarioMatchesGolden) {
  sim::Simulator sim{1};
  const exp::TcpScenario spec{.policy = [](sim::Simulator& s, Rate rate) {
    return std::make_unique<tcp::SelectiveDiscardPolicy>(
        s, rate, tcp::kTcpUtilizationFactor);
  }};
  auto [net, port] = spec.build(sim);
  sim.run_until(Time::sec(3));

  std::vector<std::int64_t> delivered;
  for (std::size_t f = 0; f < net.num_flows(); ++f) {
    delivered.push_back(net.delivered_bytes(f));
  }
  std::uint64_t transmitted = 0;
  const tcp::Router& r = net.router(0);
  for (std::size_t p = 0; p < r.num_ports(); ++p) {
    transmitted += r.port(p).packets_transmitted();
  }
  std::uint64_t wakeups = 0;
  for (std::size_t f = 0; f < net.num_flows(); ++f) {
    wakeups += net.source(f).rto_timer().wakeups();
  }
  EXPECT_EQ(transmitted, 9603u);
  EXPECT_EQ(wakeups, 44u);
  EXPECT_EQ(sim.events_executed(), 35459u - transmitted + wakeups);
  EXPECT_EQ(sim.events_executed(), 25856u + wakeups);
  EXPECT_EQ(delivered,
            (std::vector<std::int64_t>{910336, 356352, 620544, 322560}));
  EXPECT_EQ(port.max_queue_length(), 60u);
}

}  // namespace
}  // namespace phantom
