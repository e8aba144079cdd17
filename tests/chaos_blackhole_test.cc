// rm_blackhole faults through the chaos pipeline: opt-in generation,
// grammar round-trips, seed stability against older option sets,
// plan-aware triage, checkpoint round-trips, and an isolated smoke
// search that must finish with zero process crashes.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "chaos/generator.h"
#include "chaos/search.h"
#include "chaos/supervisor.h"
#include "chaos/triage.h"
#include "fault/fault_injector.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace phantom {
namespace {

using fault::FaultEvent;
using sim::Time;

exp::Scenario spec_of(int sessions = 4) {
  exp::Scenario spec;
  spec.sessions = sessions;
  return spec;
}

chaos::GenOptions with_blackhole() {
  chaos::GenOptions opt;
  opt.rm_blackhole = true;
  return opt;
}

TEST(BlackholeGeneratorTest, DefaultOptionsNeverGenerateBlackholes) {
  // Opt-in, so seeds (and checkpoints) recorded before the fault kind
  // existed keep generating identical plans.
  sim::Rng rng{2026};
  for (int i = 0; i < 50; ++i) {
    const auto plan = chaos::generate_plan(rng, spec_of());
    for (const auto& e : plan.events) {
      EXPECT_NE(e.kind, FaultEvent::Kind::kRmBlackhole);
    }
  }
}

TEST(BlackholeGeneratorTest, MisbehaveOnlySeedsAreUnchanged) {
  // The draw-range widening must not disturb the rng stream of option
  // sets that predate rm_blackhole: misbehave-only generation is
  // byte-identical with the new flag merely *available*.
  sim::Rng a{314};
  sim::Rng b{314};
  chaos::GenOptions misbehave_only;
  misbehave_only.misbehave = true;
  for (int i = 0; i < 30; ++i) {
    const auto plan = chaos::generate_plan(a, spec_of(), misbehave_only);
    chaos::GenOptions same = misbehave_only;
    same.rm_blackhole = false;  // explicit: the default
    EXPECT_EQ(plan, chaos::generate_plan(b, spec_of(), same));
  }
}

TEST(BlackholeGeneratorTest, OptInEventuallySamplesBlackholesAndRoundTrips) {
  sim::Rng rng{2026};
  int blackholes = 0;
  for (int i = 0; i < 50; ++i) {
    const auto plan = chaos::generate_plan(rng, spec_of(), with_blackhole());
    EXPECT_EQ(fault::FaultPlan::parse(plan.to_spec()), plan) << plan.to_spec();
    for (const auto& e : plan.events) {
      blackholes += e.kind == FaultEvent::Kind::kRmBlackhole;
      if (e.kind == FaultEvent::Kind::kRmBlackhole) {
        // Recovery is paired into the event: a bounded window with a
        // real drop probability, never a permanent blackhole.
        EXPECT_GT(e.duration, Time::zero()) << plan.to_spec();
        EXPECT_GT(e.rm_loss, 0.0) << plan.to_spec();
        EXPECT_LE(e.rm_loss, 1.0) << plan.to_spec();
      }
    }
  }
  EXPECT_GT(blackholes, 5);  // 1 kind in 7: ~dozens over 50 plans
}

TEST(BlackholeGeneratorTest, BlackholePlansApplyCleanly) {
  sim::Rng rng{11};
  for (int i = 0; i < 20; ++i) {
    const auto plan = chaos::generate_plan(rng, spec_of(), with_blackhole());
    sim::Simulator sim{1};
    const auto spec = spec_of();
    topo::AbrNetwork net{sim, spec.factory()};
    exp::build_topology(spec, net);
    fault::FaultInjector injector{sim, net};
    EXPECT_NO_THROW(injector.apply(plan)) << plan.to_spec();
  }
}

TEST(BlackholeGeneratorTest, SameSeedSamePlanWithBlackholeOn) {
  sim::Rng a{42};
  sim::Rng b{42};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(chaos::generate_plan(a, spec_of(), with_blackhole()),
              chaos::generate_plan(b, spec_of(), with_blackhole()));
  }
}

TEST(BlackholeGrammarTest, SpecRoundTripsWithAndWithoutProbability) {
  // Full drop probability serializes without the optional field (the
  // shrinker's lattice steps through the short form).
  fault::FaultPlan total;
  total.rm_blackhole(fault::dest(0), Time::ms(100), Time::ms(50));
  EXPECT_EQ(total.to_spec(), "rm_blackhole:dest0:100:50");
  EXPECT_EQ(fault::FaultPlan::parse(total.to_spec()), total);

  fault::FaultPlan partial;
  partial.rm_blackhole(fault::trunk(1), Time::ms(100), Time::ms(50), 0.75);
  EXPECT_EQ(partial.to_spec(), "rm_blackhole:trunk1:100:50:0.75");
  EXPECT_EQ(fault::FaultPlan::parse(partial.to_spec()), partial);
}

TEST(BlackholeGrammarTest, SessionTargetIsRejectedAtValidation) {
  // Sessions have no feedback-direction link of their own; the parser
  // accepts only trunk/dest targets and the injector enforces it.
  sim::Simulator sim{1};
  const auto spec = spec_of();
  topo::AbrNetwork net{sim, spec.factory()};
  exp::build_topology(spec, net);
  fault::FaultInjector injector{sim, net};
  fault::FaultPlan plan;
  plan.rm_blackhole(fault::session(0), Time::ms(100), Time::ms(50));
  EXPECT_THROW(injector.apply(plan), std::invalid_argument);
}

TEST(BlackholeTriageTest, GroupsByBlackholeCountAfterMisbehave) {
  fault::FaultPlan plan;
  plan.rm_blackhole(fault::dest(0), Time::ms(200), Time::ms(80));
  chaos::TrialResult a;
  a.verdict = chaos::Verdict::kInvariant;
  a.detail = "stale-rate: session 0 above envelope";
  chaos::TrialResult b;
  b.verdict = chaos::Verdict::kInvariant;
  b.detail = "stale-rate: session 2 above envelope";
  EXPECT_EQ(chaos::failure_fingerprint(a, &plan),
            chaos::failure_fingerprint(b, &plan));
  EXPECT_EQ(chaos::failure_fingerprint(a, &plan), "invariant|rm_blackhole|1");

  fault::FaultPlan two = plan;
  two.rm_blackhole(fault::trunk(0), Time::ms(300), Time::ms(40), 0.5);
  EXPECT_EQ(chaos::failure_fingerprint(a, &two), "invariant|rm_blackhole|2");

  // Defection dominates: a plan with both keeps its misbehave class, so
  // fingerprints recorded before this PR are unchanged.
  fault::FaultPlan both = plan;
  both.misbehave(1, Time::ms(220), fault::MisbehaveMode::kGreedy)
      .comply(1, Time::ms(320));
  EXPECT_EQ(chaos::failure_fingerprint(a, &both), "invariant|misbehave|1");

  // Blackhole-free plans fall back to the plain fingerprint.
  fault::FaultPlan benign;
  benign.restart(fault::dest(0), Time::ms(100));
  EXPECT_EQ(chaos::failure_fingerprint(a, &benign),
            chaos::failure_fingerprint(a));

  // And the tuple-based grouping folds a + b into one class.
  const std::vector<
      std::tuple<int, const chaos::TrialResult*, const fault::FaultPlan*>>
      failing{{0, &a, &plan}, {3, &b, &plan}};
  const auto classes = chaos::triage_failures(failing);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].trials, (std::vector<int>{0, 3}));
}

TEST(BlackholeCheckpointTest, RowsRoundTripBlackholeSpecs) {
  fault::FaultPlan plan;
  plan.rm_blackhole(fault::dest(0), Time::ms(210), Time::ms(90), 0.85);
  chaos::TrialResult r;
  r.verdict = chaos::Verdict::kNoReconverge;
  r.detail = "share never returned";
  const std::string row = chaos::checkpoint_row(7, plan.to_spec(), r);
  std::string plan_spec;
  const auto parsed = chaos::parse_checkpoint_row(row, &plan_spec);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, 7);
  EXPECT_EQ(parsed->second.verdict, chaos::Verdict::kNoReconverge);
  EXPECT_EQ(fault::FaultPlan::parse(plan_spec), plan);
}

TEST(BlackholeSearchTest, IsolatedSmokeHasZeroProcessCrashes) {
  // The chaos acceptance for this PR: a blackhole-enabled search
  // completes under process isolation without a single child dying —
  // feedback starvation stresses the decay/ADTF and invariant code
  // paths, it must not crash them. Deterministic: same options,
  // byte-identical report.
  exp::Scenario spec;
  spec.rate_mbps = 40.0;
  spec.horizon = Time::ms(600);
  chaos::SearchOptions opt;
  opt.trials = 6;
  opt.seed = 5;
  opt.isolate = true;
  opt.jobs = 2;
  opt.shrink = true;
  opt.gen.rm_blackhole = true;
  const auto report = chaos::run_search(spec, opt);
  EXPECT_EQ(report.trials_run, 6);
  for (const auto& f : report.failures) {
    EXPECT_NE(f.result.verdict, chaos::Verdict::kProcessCrash)
        << f.result.crash_signal << ": " << f.result.stderr_tail;
    EXPECT_EQ(f.shrunk_result.verdict, f.result.verdict);
  }
  const auto again = chaos::run_search(spec, opt);
  EXPECT_EQ(report.to_json(), again.to_json());
}

}  // namespace
}  // namespace phantom
