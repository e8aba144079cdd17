// Fault-injection subsystem: plans, the injector, and the invariant
// monitor, exercised on real networks.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "exp/factories.h"
#include "exp/probes.h"
#include "exp/scenario.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_monitor.h"
#include "sim/simulator.h"
#include "topo/abr_network.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;
using topo::AbrNetwork;

struct Counter final : atm::CellSink {
  void receive_cell(atm::Cell) override { ++cells; }
  int cells = 0;
};

TEST(FaultPlanTest, ParsesAllEventKinds) {
  const auto plan = fault::FaultPlan::parse(
      "outage:trunk0:250:50;flap:dest1:100:3:5:10;"
      "burst:trunk2:10:200:0.1:0.3:0.5;rmloss:trunk0:0:100:0.25:0.5;"
      "restart:trunk0:450;leave:1:500;join:1:550");
  ASSERT_EQ(plan.events.size(), 7u);
  using K = fault::FaultEvent::Kind;
  EXPECT_EQ(plan.events[0].kind, K::kOutage);
  EXPECT_EQ(plan.events[0].target.kind, fault::FaultTarget::Kind::kTrunk);
  EXPECT_EQ(plan.events[0].at, Time::ms(250));
  EXPECT_EQ(plan.events[0].duration, Time::ms(50));
  EXPECT_EQ(plan.events[1].kind, K::kFlap);
  EXPECT_EQ(plan.events[1].target.kind, fault::FaultTarget::Kind::kDest);
  EXPECT_EQ(plan.events[1].cycles, 3);
  EXPECT_EQ(plan.events[2].kind, K::kBurst);
  EXPECT_DOUBLE_EQ(plan.events[2].p_good_bad, 0.1);
  EXPECT_DOUBLE_EQ(plan.events[2].loss_bad, 0.5);
  EXPECT_EQ(plan.events[3].kind, K::kRmFault);
  EXPECT_DOUBLE_EQ(plan.events[3].rm_corrupt, 0.5);
  EXPECT_EQ(plan.events[4].kind, K::kRestart);
  EXPECT_EQ(plan.events[5].kind, K::kLeave);
  EXPECT_EQ(plan.events[5].target.index, 1u);
  EXPECT_EQ(plan.events[6].kind, K::kJoin);
  EXPECT_EQ(plan.first_fault_time(), Time::zero());
  EXPECT_EQ(plan.last_recovery_time(), Time::ms(550));
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse("meteor:trunk0:1:2"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("outage:link0:1:2"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("outage:trunk0:1"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("outage:trunk0:-5:2"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("burst:trunk0:1:2:1.5:0.3:0.5"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("flap:trunk0:1:0:5:5"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("leave:x:5"), std::invalid_argument);
  // Every number goes through the CLIs' strict parser: no NaN, infinity
  // or leading space, no index past size_t, and no time sim::Time
  // cannot hold.
  for (const char* spec :
       {"memsqueeze:100:nan", "memsqueeze:100:nan:50",
        "burst:dest0:100:50:nan:0.5:0.5", "outage:dest0:nan:50",
        "outage:dest0:inf:50", "outage:dest0:1e300:50",
        "outage:dest0: 5:50", "flap:dest0:1:2.5:5:5",
        "outage:trunk99999999999999999999:1:1",
        // Each time fits, but the event's end does not.
        "outage:dest0:9000000000000:9000000000000",
        "flap:dest0:1:3:9000000000000:9000000000000"}) {
    EXPECT_THROW(fault::FaultPlan::parse(spec), std::invalid_argument) << spec;
  }
  try {
    (void)fault::FaultPlan::parse("restart:dest0:100;outage:dest0:1e300:50");
    ADD_FAILURE() << "an unrepresentable time parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "fault plan: bad time '1e300' in event 2 "
                 "(\"outage:dest0:1e300:50\") at character 18");
  }
  try {
    (void)fault::FaultPlan::parse("flap:dest0:1:3:9000000000000:9000000000000");
    ADD_FAILURE() << "an event ending beyond sim::Time parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "fault plan: event ends beyond sim::Time's range in event 1 "
                 "(\"flap:dest0:1:3:9000000000000:9000000000000\") at "
                 "character 0");
  }
  EXPECT_NO_THROW(fault::FaultPlan::parse(""));  // empty plan is fine
}

TEST(FaultInjectorTest, ValidatesTargetsBeforeScheduling) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 2}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  const auto pending_before = sim.pending_count();
  EXPECT_THROW(
      injector.apply(
          fault::FaultPlan{}.outage(fault::trunk(5), Time::ms(1), Time::ms(1))),
      std::out_of_range);
  EXPECT_THROW(
      injector.apply(fault::FaultPlan{}.leave(9, Time::ms(1))),
      std::out_of_range);
  // Nothing was scheduled by the failed applications.
  EXPECT_EQ(sim.pending_count(), pending_before);
}

TEST(FaultInjectorTest, OutageStopsAndRestoresDelivery) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 2}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  injector.apply(fault::FaultPlan{}.outage(fault::dest(0), Time::ms(100),
                                           Time::ms(50)));
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(101));  // in-flight cells from before have landed
  const auto during_start = b.net.delivered_cells(0) + b.net.delivered_cells(1);
  sim.run_until(Time::ms(149));
  const auto during_end = b.net.delivered_cells(0) + b.net.delivered_cells(1);
  EXPECT_EQ(during_start, during_end);  // nothing crosses a dead link
  const auto lost_during = b.net.total_cells_lost();
  EXPECT_GT(lost_during, 0u);
  sim.run_until(Time::ms(300));
  EXPECT_GT(b.net.delivered_cells(0) + b.net.delivered_cells(1), during_end);
  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_EQ(injector.log()[0].time, Time::ms(100));
  EXPECT_EQ(injector.log()[1].time, Time::ms(150));
}

TEST(FaultInjectorTest, FlapTogglesLinkRepeatedly) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 1}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  injector.apply(fault::FaultPlan{}.flap(fault::dest(0), Time::ms(50), 3,
                                         Time::ms(5), Time::ms(10)));
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(200));
  ASSERT_EQ(injector.log().size(), 6u);  // 3 x (down + up)
  EXPECT_EQ(injector.log()[0].time, Time::ms(50));
  EXPECT_EQ(injector.log()[1].time, Time::ms(55));
  EXPECT_EQ(injector.log()[4].time, Time::ms(80));
  EXPECT_GT(b.net.total_cells_lost(), 0u);
  EXPECT_GT(b.net.delivered_cells(0), 0u);  // survives the flapping
}

TEST(LinkFaultModelTest, GilbertElliottLossMatchesStationaryRate) {
  Simulator sim{99};
  Counter sink;
  atm::Link link{sim, Time::zero(), sink};
  auto st = link.state();
  st->burst_enabled = true;
  st->burst_p_good_bad = 0.1;
  st->burst_p_bad_good = 0.3;
  st->burst_loss_good = 0.0;
  st->burst_loss_bad = 0.5;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) link.deliver(atm::Cell::data(1));
  sim.run();
  // Stationary P(bad) = p_gb / (p_gb + p_bg) = 0.25; loss = 0.25 * 0.5.
  const double loss_rate = static_cast<double>(st->counters().lost_burst) / n;
  EXPECT_NEAR(loss_rate, 0.125, 0.01);
  EXPECT_EQ(st->counters().lost_burst + st->counters().delivered,
            static_cast<std::uint64_t>(n));
}

TEST(LinkFaultModelTest, RmLossKillsOnlyRmCells) {
  Simulator sim{5};
  Counter sink;
  atm::Link link{sim, Time::zero(), sink};
  link.state()->rm_loss = 1.0;
  for (int i = 0; i < 100; ++i) {
    link.deliver(atm::Cell::data(1));
    link.deliver(atm::Cell::forward_rm(1, Rate::mbps(10), Rate::mbps(150)));
  }
  sim.run();
  EXPECT_EQ(sink.cells, 100);  // every data cell, no RM cells
  EXPECT_EQ(link.state()->counters().lost_rm, 100u);
}

// Faults act when a cell is offered to the link. Cells already on the
// line when an outage or an RM fault starts arrive unharmed, and the
// line holds exactly the cells the counters call in flight.
TEST(LinkFaultModelTest, FaultsLeaveCellsOnTheLineAlone) {
  Simulator sim{5};
  struct Collector final : atm::CellSink {
    void receive_cell(atm::Cell c) override { cells.push_back(c); }
    std::vector<atm::Cell> cells;
  } sink;
  atm::Link link{sim, Time::ms(1), sink};
  const auto st = link.state();
  const auto er = Rate::mbps(150);
  // One data and one RM cell every 100 us for 500 us, all on the line
  // before the faults switch on at 550 us.
  for (int i = 0; i < 5; ++i) {
    sim.schedule(Time::us(100 * i), [&link, er] {
      link.deliver(atm::Cell::data(1));
      link.deliver(atm::Cell::forward_rm(1, Rate::mbps(10), er));
    });
  }
  sim.schedule(Time::us(550), [st] {
    st->down = true;
    st->rm_loss = 1.0;
    st->rm_corrupt = 1.0;
  });
  sim.run_until(Time::us(600));
  EXPECT_EQ(st->in_flight(), 10u);
  EXPECT_EQ(st->line.size(), 10u);
  EXPECT_TRUE(sink.cells.empty());

  link.deliver(atm::Cell::data(1));  // offered during the outage
  EXPECT_EQ(st->counters().lost_outage, 1u);
  EXPECT_EQ(st->in_flight(), st->line.size());

  sim.run_until(Time::us(1450));  // the first 5 pairs have landed
  EXPECT_EQ(sink.cells.size(), 10u);
  EXPECT_EQ(st->in_flight(), st->line.size());
  EXPECT_EQ(st->line.size(), 0u);
  for (const atm::Cell& c : sink.cells) {
    if (c.is_rm()) {
      EXPECT_EQ(c.er, er);
      EXPECT_FALSE(c.ci);
    }
  }
  EXPECT_EQ(st->counters().lost_rm, 0u);
  EXPECT_EQ(st->counters().corrupted_rm, 0u);
  EXPECT_EQ(st->counters().delivered, 10u);
}

// A port's link judges its cells at departure, lazily, so the injector
// settles the link before changing its fault model. An outage window
// then loses exactly the cells that depart inside it: not the cells
// already on the 2 ms wire when it begins, and every cell departing up
// to its end (a departure at an edge instant precedes the change).
TEST(FaultInjectorTest, OutageLosesExactlyTheCellsDepartingInsideIt) {
  Simulator sim;
  AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  topo::TrunkOptions opts;
  opts.delay = Time::ms(2);
  const auto dest = net.add_destination(sw, opts);
  for (int i = 0; i < 3; ++i) net.add_session(sw, {}, dest);
  const atm::OutputPort& port = net.dest_port(dest);
  std::uint64_t departed_at_start = 0;
  std::uint64_t departed_at_end = 0;
  fault::FaultInjector injector{sim, net};
  injector.apply(
      fault::FaultPlan{}
          .outage(fault::dest(0), Time::ms(50), Time::ms(1))
          .custom(Time::ms(50),
                  [&] { departed_at_start = port.cells_transmitted(); })
          .custom(Time::ms(51),
                  [&] { departed_at_end = port.cells_transmitted(); }));
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(60));
  const atm::LinkState& st = *port.link().state();
  EXPECT_GT(departed_at_end - departed_at_start, 100u);
  EXPECT_EQ(st.counters().lost_outage, departed_at_end - departed_at_start);
  EXPECT_EQ(st.lost(), st.counters().lost_outage);
}

TEST(LinkFaultModelTest, RmCorruptionScramblesFeedbackFields) {
  Simulator sim{5};
  struct Collector final : atm::CellSink {
    void receive_cell(atm::Cell c) override { cells.push_back(c); }
    std::vector<atm::Cell> cells;
  } sink;
  atm::Link link{sim, Time::zero(), sink};
  link.state()->rm_corrupt = 1.0;
  const auto er = Rate::mbps(150);
  for (int i = 0; i < 200; ++i) {
    link.deliver(atm::Cell::forward_rm(1, Rate::mbps(10), er));
  }
  sim.run();
  ASSERT_EQ(sink.cells.size(), 200u);
  int changed_er = 0;
  int ci_set = 0;
  for (const atm::Cell& c : sink.cells) {
    if (std::abs(c.er.bits_per_sec() - er.bits_per_sec()) > 1.0) ++changed_er;
    if (c.ci) ++ci_set;
  }
  EXPECT_GT(changed_er, 150);  // uniform redraw almost never lands on ER
  EXPECT_GT(ci_set, 50);       // CI flips with p = 0.5
  EXPECT_LT(ci_set, 150);
}

TEST(FaultInjectorTest, RmCorruptionWindowSurvivedWithoutViolations) {
  // Corrupted ER/CI feedback must not drive any source outside [0, PCR]
  // (the source-side clamps are the last line of defense) and must not
  // break cell conservation.
  Simulator sim{3};
  auto b = exp::Scenario{.sessions = 3}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  injector.apply(fault::FaultPlan{}.rm_fault(fault::dest(0), Time::ms(100),
                                             Time::ms(200), 0.2, 0.8));
  fault::InvariantMonitor monitor{sim, b.net};
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  monitor.check_now();
  EXPECT_TRUE(monitor.violations().empty())
      << monitor.violations().front().detail;
  EXPECT_GT(b.net.delivered_cells(0), 1'000u);
  EXPECT_GT(monitor.checks_run(), 100u);
}

TEST(FaultInjectorTest, ControllerRestartRelearnsFairShare) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 3}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  injector.apply(fault::FaultPlan{}.restart(fault::dest(0), Time::ms(200)));
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(199));
  const double before = b.port.controller().fair_share()
                            .mbits_per_sec();
  sim.run_until(Time::ms(201));
  const double wiped = b.port.controller().fair_share()
                           .mbits_per_sec();
  EXPECT_LT(wiped, before);  // state really was wiped to the boot value
  sim.run_until(Time::ms(400));
  const double relearned = b.port.controller().fair_share()
                               .mbits_per_sec();
  // u*C/(n+1) = 0.95 * 150 / 4 = 35.625; relearned within 10%.
  EXPECT_NEAR(relearned, 35.625, 3.6);
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_NE(injector.log()[0].description.find("restart"), std::string::npos);
}

TEST(FaultInjectorTest, SessionChurnThroughPlan) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 2}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  injector.apply(fault::FaultPlan{}
                     .leave(1, Time::ms(100))
                     .join(1, Time::ms(200)));
  fault::InvariantMonitor monitor{sim, b.net};
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(150));
  EXPECT_FALSE(b.net.source(1).active());
  const auto s1_away = b.net.delivered_cells(1);
  sim.run_until(Time::ms(350));
  EXPECT_TRUE(b.net.source(1).active());
  EXPECT_GT(b.net.delivered_cells(1), s1_away);  // transmitting again
  monitor.check_now();
  EXPECT_TRUE(monitor.violations().empty());
}

TEST(FaultInjectorTest, JoinStartsANeverStartedSource) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 2}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  injector.apply(fault::FaultPlan{}.join(1, Time::ms(50)));
  b.net.source(0).start(Time::zero());  // session 1 never started
  sim.run_until(Time::ms(200));
  EXPECT_TRUE(b.net.source(1).started());
  EXPECT_GT(b.net.delivered_cells(1), 0u);
}

TEST(FaultInjectorTest, CustomActionRunsOnSchedule) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 1}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  bool ran = false;
  injector.apply(fault::FaultPlan{}.custom(
      Time::ms(42), [&] { ran = true; }, "demand change"));
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(100));
  EXPECT_TRUE(ran);
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].description, "demand change");
  EXPECT_EQ(injector.log()[0].time, Time::ms(42));
}

TEST(InvariantMonitorTest, HealthyRunIsClean) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 3}.build(sim);
  fault::InvariantMonitor monitor{sim, b.net};
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(250));
  monitor.check_now();
  EXPECT_GT(monitor.checks_run(), 200u);
  EXPECT_TRUE(monitor.violations().empty())
      << monitor.violations().front().detail;
}

/// Deliberately broken controller: advertises a negative fair share.
class BrokenController final : public atm::PortController {
 public:
  void on_backward_rm(atm::Cell&, std::size_t) override {}
  [[nodiscard]] sim::Rate fair_share() const override {
    return sim::Rate::bps(-1.0);
  }
  [[nodiscard]] std::string name() const override { return "broken"; }
};

TEST(InvariantMonitorTest, FlagsRateBoundViolations) {
  Simulator sim;
  AbrNetwork net{sim, [](sim::Simulator&, Rate) {
                   return std::make_unique<BrokenController>();
                 }};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  net.add_session(sw, {}, dest);
  fault::InvariantMonitor monitor{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(5));
  ASSERT_FALSE(monitor.violations().empty());
  EXPECT_EQ(monitor.violations().front().invariant, "rate-bounds");
  EXPECT_NE(monitor.violations().front().detail.find("broken"),
            std::string::npos);
}

TEST(InvariantMonitorTest, ConservationHoldsUnderCombinedFaults) {
  // Parking lot under an outage + burst loss + RM faults + restart +
  // churn, all at once: every cell must still be accounted for at every
  // periodic check. Three sessions: the long one across trunk0, trunk1
  // and dest0, a local on trunk0, and a local on trunk1 into dest0.
  Simulator sim{11};
  auto [net, port] =
      exp::Scenario{.kind = exp::Scenario::Kind::kParking, .sessions = 3}
          .build(sim);

  fault::FaultInjector injector{sim, net};
  injector.apply(
      fault::FaultPlan{}
          .outage(fault::trunk(0), Time::ms(60), Time::ms(20))
          .burst(fault::trunk(1), Time::ms(30), Time::ms(150), 0.05, 0.4, 0.6)
          .rm_fault(fault::trunk(0), Time::ms(100), Time::ms(80), 0.3, 0.3)
          .restart(fault::trunk(0), Time::ms(150))
          .leave(1, Time::ms(90))
          .join(1, Time::ms(180)));
  fault::InvariantMonitor monitor{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(300));
  monitor.check_now();
  EXPECT_GT(net.total_cells_lost(), 0u);
  EXPECT_TRUE(monitor.violations().empty())
      << monitor.violations().front().detail;
  EXPECT_EQ(injector.log().size(), 2u + 2u + 2u + 1u + 1u + 1u);
}

TEST(FaultInjectorTest, DeferredValidationRejectsChurnAtActivation) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 2}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  // Deferred mode accepts the plan at load time...
  EXPECT_NO_THROW(
      injector.apply(fault::FaultPlan{}.leave(9, Time::ms(10)),
                     fault::FaultInjector::ValidateMode::kAtActivation));
  b.net.start_all(Time::zero(), Time::zero());
  // ...but the out-of-range index is still caught when the event fires,
  // not silently dropped or applied to some other session.
  EXPECT_THROW(sim.run_until(Time::ms(20)), std::out_of_range);
  EXPECT_EQ(sim.now(), Time::ms(10));  // threw at the activation instant
}

TEST(FaultInjectorTest, DeferredValidationStillRejectsBadLinksEagerly) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 2}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  // Only session churn is deferred; an unresolvable link target can
  // never become valid and is refused up front in both modes.
  EXPECT_THROW(
      injector.apply(
          fault::FaultPlan{}.outage(fault::trunk(5), Time::ms(1), Time::ms(1)),
          fault::FaultInjector::ValidateMode::kAtActivation),
      std::out_of_range);
}

TEST(FaultPlanTest, ParsesMisbehaveAndComply) {
  const auto plan = fault::FaultPlan::parse(
      "misbehave:1:100:greedy;misbehave:2:150:partial:0.25;"
      "misbehave:0:120:forge;comply:1:300");
  ASSERT_EQ(plan.events.size(), 4u);
  using K = fault::FaultEvent::Kind;
  EXPECT_EQ(plan.events[0].kind, K::kMisbehave);
  EXPECT_EQ(plan.events[0].target.kind, fault::FaultTarget::Kind::kSession);
  EXPECT_EQ(plan.events[0].target.index, 1u);
  EXPECT_EQ(plan.events[0].mode, fault::MisbehaveMode::kGreedy);
  EXPECT_EQ(plan.events[0].at, Time::ms(100));
  EXPECT_EQ(plan.events[1].mode, fault::MisbehaveMode::kPartial);
  EXPECT_DOUBLE_EQ(plan.events[1].compliance, 0.25);
  EXPECT_EQ(plan.events[2].mode, fault::MisbehaveMode::kForge);
  EXPECT_EQ(plan.events[3].kind, K::kComply);
  EXPECT_EQ(plan.events[3].target.index, 1u);
  // And back out through the grammar, exactly.
  EXPECT_EQ(fault::FaultPlan::parse(plan.to_spec()), plan);
}

TEST(FaultPlanTest, RejectsMalformedMisbehave) {
  EXPECT_THROW(fault::FaultPlan::parse("misbehave:1:100:sneaky"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("misbehave:1:100"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("misbehave:1:100:partial:1.5"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("comply:1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("comply:x:5"), std::invalid_argument);
}

TEST(FaultInjectorTest, MisbehaveSwitchesSourceBehaviorOnSchedule) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 3}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  injector.apply(fault::FaultPlan{}
                     .misbehave(1, Time::ms(50), fault::MisbehaveMode::kGreedy)
                     .comply(1, Time::ms(150)));
  b.net.start_all(Time::zero(), Time::zero());
  EXPECT_EQ(b.net.source(1).behavior(), atm::SourceBehavior::kCompliant);
  sim.run_until(Time::ms(100));
  EXPECT_EQ(b.net.source(1).behavior(), atm::SourceBehavior::kGreedy);
  EXPECT_EQ(b.net.source(0).behavior(), atm::SourceBehavior::kCompliant);
  sim.run_until(Time::ms(200));
  EXPECT_EQ(b.net.source(1).behavior(), atm::SourceBehavior::kCompliant);
  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_NE(injector.log()[0].description.find("misbehaves"),
            std::string::npos);
  EXPECT_NE(injector.log()[1].description.find("compliance"),
            std::string::npos);
}

TEST(FaultInjectorTest, MisbehaveValidatesSessionIndexAtLoad) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 2}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  const auto pending_before = sim.pending_count();
  EXPECT_THROW(
      injector.apply(fault::FaultPlan{}.misbehave(
          5, Time::ms(1), fault::MisbehaveMode::kGreedy)),
      std::out_of_range);
  EXPECT_THROW(injector.apply(fault::FaultPlan{}.comply(5, Time::ms(1))),
               std::out_of_range);
  EXPECT_EQ(sim.pending_count(), pending_before);
}

TEST(FaultInjectorTest, EagerValidationNamesLoadTime) {
  Simulator sim;
  auto b = exp::Scenario{.sessions = 2}.build(sim);
  fault::FaultInjector injector{sim, b.net};
  try {
    injector.apply(fault::FaultPlan{}.join(7, Time::ms(1)));
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string{e.what()}.find("at plan load"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find("session 7"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace phantom
