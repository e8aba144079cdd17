// Overload smoke: the ISSUE acceptance scenario. A 100-session setup
// storm against one bottleneck with overload armor on, hit by a
// windowed memory squeeze and a mid-run VC storm, must finish with
// zero invariant violations, nonzero refusal counters, and every
// admitted MCR contract intact.
#include <gtest/gtest.h>

#include <string>

#include "chaos/generator.h"
#include "exp/scenario.h"
#include "chaos/search.h"
#include "exp/factories.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_monitor.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "topo/abr_network.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Time;
using topo::AbrNetwork;

TEST(OverloadSmokeTest, HundredSessionSqueezeAndStormStayWithinContract) {
  sim::Simulator sim{2026};
  AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("bottleneck");
  const auto dest = net.add_destination(sw);  // 150 Mb/s
  topo::OverloadOptions oo;
  oo.buffer.budget_cells = 2048;
  net.enable_overload_protection(oo);

  // Offer 100 contracted sessions; the MCR booking limit (0.9 * 150 =
  // 135 Mb/s) admits 45 and refuses the rest at setup.
  atm::AbrParams params;
  params.mcr = Rate::mbps(3);
  params.frame_cells = 16;
  std::size_t admitted = 0;
  for (int i = 0; i < 100; ++i) {
    if (net.try_add_session(sw, {}, dest, params).admitted) ++admitted;
  }
  EXPECT_EQ(admitted, 45u);
  EXPECT_EQ(net.cac_totals().refused_mcr_budget, 55u);

  // Squeeze the shared buffer to 40% for 100 ms, then flood the switch
  // with 30 more setup attempts while it is still digesting.
  fault::FaultInjector injector{sim, net};
  fault::FaultPlan plan;
  plan.memsqueeze(Time::ms(250), 0.4, Time::ms(100))
      .vcstorm(Time::ms(300), 30, Time::ms(150));
  injector.apply(plan);

  fault::InvariantMonitor monitor{sim, net};
  net.start_all(Time::zero(), Time::us(50));
  sim.run_until(Time::ms(150));  // past the ICR startup transient
  monitor.enable_mcr_retention_check({});
  sim.run_until(Time::ms(600));
  monitor.check_now();

  EXPECT_TRUE(monitor.violations().empty())
      << monitor.violations().front().invariant << ": "
      << monitor.violations().front().detail;
  EXPECT_GT(net.cac_totals().refused_total(), 55u)
      << "the vc storm must add refusals on top of the setup storm's";
  EXPECT_GT(net.delivered_cells(0), 0u);
  ASSERT_FALSE(injector.log().empty());
}

// The generator's opt-in overload mix only emits memsqueeze / vcstorm
// events, every plan round-trips through its spec, and a short chaos
// search over an armed scenario comes back clean.
TEST(OverloadSmokeTest, GeneratedOverloadPlansRoundTripAndSearchIsClean) {
  exp::Scenario spec;
  spec.sessions = 6;
  spec.rate_mbps = 60.0;
  spec.horizon = Time::ms(600);
  spec.overload = true;
  spec.overload_options.buffer.budget_cells = 2048;

  chaos::GenOptions gen;
  gen.overload = true;
  sim::Rng rng{17};
  bool saw_overload_event = false;
  for (int i = 0; i < 40; ++i) {
    const auto plan = chaos::generate_plan(rng, spec, gen);
    EXPECT_EQ(fault::FaultPlan::parse(plan.to_spec()), plan) << plan.to_spec();
    const std::string s = plan.to_spec();
    saw_overload_event |= s.find("memsqueeze") != std::string::npos ||
                          s.find("vcstorm") != std::string::npos;
  }
  EXPECT_TRUE(saw_overload_event)
      << "40 seeds without a single resource-exhaustion event";

  chaos::SearchOptions opt;
  opt.trials = 4;
  opt.seed = 5;
  opt.shrink = false;
  opt.gen = gen;
  const auto report = chaos::run_search(spec, opt);
  EXPECT_TRUE(report.clean()) << report.to_json();
  EXPECT_EQ(report.trials_run, 4);
}

}  // namespace
}  // namespace phantom
