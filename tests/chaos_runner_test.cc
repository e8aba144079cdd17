// Trial execution: watchdog conversions, oracle verdicts, determinism.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "chaos/runner.h"

namespace phantom {
namespace {

using sim::Time;

exp::Scenario smoke_spec() {
  exp::Scenario spec;  // modest rate keeps smoke trials fast
  spec.rate_mbps = 40.0;
  spec.horizon = Time::ms(600);
  return spec;
}

TEST(RunnerTest, FaultFreeTrialPasses) {
  const auto spec = smoke_spec();
  chaos::TrialOptions opt;
  const auto base = chaos::run_baseline(spec, 1, opt);
  EXPECT_GT(base.settled_share_bps, 0.0);
  EXPECT_GT(base.delivered_cells, 0u);
  const auto r = chaos::run_trial(spec, 1, {}, opt, &base);
  EXPECT_FALSE(r.failed()) << r.detail;
  EXPECT_GT(r.events, 0u);
}

TEST(RunnerTest, PhantomSurvivesOutageAndRestart) {
  const auto spec = smoke_spec();
  fault::FaultPlan plan;
  plan.outage(fault::dest(0), Time::ms(250), Time::ms(20))
      .restart(fault::dest(0), Time::ms(290));
  chaos::TrialOptions opt;
  const auto base = chaos::run_baseline(spec, 1, opt);
  const auto r = chaos::run_trial(spec, 1, plan, opt, &base);
  EXPECT_EQ(r.verdict, chaos::Verdict::kPass) << r.detail;
  ASSERT_TRUE(r.reconverge_latency.has_value());
  EXPECT_GE(*r.reconverge_latency, Time::zero());
}

TEST(RunnerTest, UnresolvableTargetIsACrashVerdict) {
  const auto spec = smoke_spec();  // bottleneck has no trunks
  fault::FaultPlan plan;
  plan.outage(fault::trunk(3), Time::ms(250), Time::ms(20));
  const auto r = chaos::run_trial(spec, 1, plan);
  EXPECT_EQ(r.verdict, chaos::Verdict::kCrash);
  EXPECT_NE(r.detail.find("applying plan"), std::string::npos) << r.detail;
}

TEST(RunnerTest, LivelockBecomesAWatchdogVerdict) {
  const auto spec = smoke_spec();
  chaos::TrialOptions opt;
  opt.watchdog.max_events_per_instant = 2000;
  // Inject a zero-delay self-rescheduling event: sim time freezes at
  // 50 ms and only the per-instant budget can end the run.
  opt.prepare = [](sim::Simulator& sim, topo::AbrNetwork&) {
    // Static storage, not a self-capturing shared_ptr: the closure
    // referencing itself through a shared_ptr is a reference cycle
    // that LeakSanitizer rightly reports.
    static std::function<void()> spin;
    spin = [&sim] { sim.schedule(Time::zero(), spin); };
    sim.schedule_at(Time::ms(50), spin);
  };
  const auto r = chaos::run_trial(spec, 1, {}, opt);
  EXPECT_EQ(r.verdict, chaos::Verdict::kWatchdog) << r.detail;
  EXPECT_NE(r.detail.find("livelock"), std::string::npos) << r.detail;
}

TEST(RunnerTest, EventBudgetBecomesAWatchdogVerdict) {
  const auto spec = smoke_spec();
  chaos::TrialOptions opt;
  opt.watchdog.max_events = 5000;  // far below a real run's event count
  const auto r = chaos::run_trial(spec, 1, {}, opt);
  EXPECT_EQ(r.verdict, chaos::Verdict::kWatchdog) << r.detail;
  EXPECT_NE(r.detail.find("event-budget"), std::string::npos) << r.detail;
  EXPECT_EQ(r.events, 5000u);
}

TEST(RunnerTest, BrokenBaselineThrowsInsteadOfJudging) {
  const auto spec = smoke_spec();
  chaos::TrialOptions opt;
  opt.watchdog.max_events = 100;  // even the clean run cannot finish
  EXPECT_THROW((void)chaos::run_baseline(spec, 1, opt), std::runtime_error);
}

TEST(RunnerTest, TrialsAreDeterministic) {
  const auto spec = smoke_spec();
  fault::FaultPlan plan;
  plan.burst(fault::dest(0), Time::ms(250), Time::ms(30), 0.2, 0.5, 0.8);
  const auto a = chaos::run_trial(spec, 9, plan);
  const auto b = chaos::run_trial(spec, 9, plan);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.reconverge_latency, b.reconverge_latency);
  EXPECT_DOUBLE_EQ(a.settled_share_mbps, b.settled_share_mbps);
  EXPECT_DOUBLE_EQ(a.peak_queue_cells, b.peak_queue_cells);
}

}  // namespace
}  // namespace phantom
