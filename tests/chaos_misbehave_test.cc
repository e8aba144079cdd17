// Misbehave faults through the chaos pipeline: opt-in generation,
// grammar round-trips, plan-aware triage, checkpoint round-trips, and
// an isolated smoke search that must finish with zero process crashes.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

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

chaos::GenOptions with_misbehave() {
  chaos::GenOptions opt;
  opt.misbehave = true;
  return opt;
}

TEST(MisbehaveGeneratorTest, DefaultOptionsNeverGenerateMisbehave) {
  // The flag is opt-in so seeds (and checkpoints) recorded before the
  // fault kind existed keep generating identical plans.
  sim::Rng rng{2026};
  for (int i = 0; i < 50; ++i) {
    const auto plan = chaos::generate_plan(rng, spec_of());
    for (const auto& e : plan.events) {
      EXPECT_NE(e.kind, FaultEvent::Kind::kMisbehave);
      EXPECT_NE(e.kind, FaultEvent::Kind::kComply);
    }
  }
}

TEST(MisbehaveGeneratorTest, OptInEventuallySamplesMisbehaveAndRoundTrips) {
  sim::Rng rng{2026};
  int misbehaves = 0;
  for (int i = 0; i < 50; ++i) {
    const auto plan = chaos::generate_plan(rng, spec_of(), with_misbehave());
    EXPECT_EQ(fault::FaultPlan::parse(plan.to_spec()), plan) << plan.to_spec();
    for (const auto& e : plan.events) {
      misbehaves += e.kind == FaultEvent::Kind::kMisbehave;
    }
  }
  EXPECT_GT(misbehaves, 5);  // 1 kind in 7: ~dozens over 50 plans
}

TEST(MisbehaveGeneratorTest, EveryMisbehaveHasALaterComplyOfTheSameSession) {
  // Mirrors the leave/join pairing guarantee: the network must end the
  // run in its nominal configuration or the differential oracle would
  // flag every misbehave plan.
  sim::Rng rng{7};
  for (int i = 0; i < 50; ++i) {
    const auto plan = chaos::generate_plan(rng, spec_of(), with_misbehave());
    for (const auto& e : plan.events) {
      if (e.kind != FaultEvent::Kind::kMisbehave) continue;
      bool complied = false;
      for (const auto& c : plan.events) {
        complied |= c.kind == FaultEvent::Kind::kComply &&
                    c.target.index == e.target.index && c.at > e.at;
      }
      EXPECT_TRUE(complied) << plan.to_spec();
    }
  }
}

TEST(MisbehaveGeneratorTest, MisbehavePlansApplyCleanly) {
  sim::Rng rng{11};
  for (int i = 0; i < 20; ++i) {
    const auto plan = chaos::generate_plan(rng, spec_of(), with_misbehave());
    sim::Simulator sim{1};
    const auto spec = spec_of();
    topo::AbrNetwork net{sim, spec.factory()};
    exp::build_topology(spec, net);
    fault::FaultInjector injector{sim, net};
    EXPECT_NO_THROW(injector.apply(plan)) << plan.to_spec();
  }
}

TEST(MisbehaveGeneratorTest, SameSeedSamePlanWithMisbehaveOn) {
  sim::Rng a{42};
  sim::Rng b{42};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(chaos::generate_plan(a, spec_of(), with_misbehave()),
              chaos::generate_plan(b, spec_of(), with_misbehave()));
  }
}

TEST(MisbehaveTriageTest, GroupsByAdversaryPressureNotOracleMessage) {
  // Two trials under the same adversary pressure fail with different
  // oracle messages; the plan-aware fingerprint folds them anyway.
  fault::FaultPlan plan;
  plan.misbehave(2, Time::ms(200), fault::MisbehaveMode::kGreedy)
      .comply(2, Time::ms(300));
  chaos::TrialResult a;
  a.verdict = chaos::Verdict::kInvariant;
  a.detail = "fair-share-retention: session 0 at 0.31 < 0.85";
  chaos::TrialResult b;
  b.verdict = chaos::Verdict::kInvariant;
  b.detail = "fair-share-retention: session 1 at 0.07 < 0.85";
  EXPECT_EQ(chaos::failure_fingerprint(a, &plan),
            chaos::failure_fingerprint(b, &plan));
  EXPECT_EQ(chaos::failure_fingerprint(a, &plan), "invariant|misbehave|1");

  // Distinct adversary counts are distinct classes.
  fault::FaultPlan two = plan;
  two.misbehave(1, Time::ms(220), fault::MisbehaveMode::kForge)
      .comply(1, Time::ms(320));
  EXPECT_EQ(chaos::failure_fingerprint(a, &two), "invariant|misbehave|2");

  // A process crash keeps its signal fingerprint: the crash identity
  // matters more than what provoked it.
  chaos::TrialResult crash;
  crash.verdict = chaos::Verdict::kProcessCrash;
  crash.crash_signal = "SIGSEGV";
  EXPECT_EQ(chaos::failure_fingerprint(crash, &plan),
            chaos::failure_fingerprint(crash));

  // Null or misbehave-free plans fall back to the plain fingerprint.
  fault::FaultPlan benign;
  benign.restart(fault::dest(0), Time::ms(100));
  EXPECT_EQ(chaos::failure_fingerprint(a, nullptr),
            chaos::failure_fingerprint(a));
  EXPECT_EQ(chaos::failure_fingerprint(a, &benign),
            chaos::failure_fingerprint(a));

  // And the tuple-based grouping uses it: one class for a + b.
  const std::vector<
      std::tuple<int, const chaos::TrialResult*, const fault::FaultPlan*>>
      failing{{0, &a, &plan}, {3, &b, &plan}};
  const auto classes = chaos::triage_failures(failing);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].trials, (std::vector<int>{0, 3}));
}

TEST(MisbehaveCheckpointTest, RowsRoundTripMisbehaveSpecs) {
  fault::FaultPlan plan;
  plan.misbehave(1, Time::ms(210), fault::MisbehaveMode::kPartial, 0.35)
      .comply(1, Time::ms(340));
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

TEST(MisbehaveSearchTest, IsolatedSmokeHasZeroProcessCrashes) {
  // The PR's chaos acceptance: a misbehave-enabled search completes
  // under process isolation without a single child dying — source
  // defection stresses the policing/invariant code paths, it must not
  // crash them. Deterministic: same options, byte-identical report.
  exp::Scenario spec;
  spec.rate_mbps = 40.0;
  spec.horizon = Time::ms(600);
  chaos::SearchOptions opt;
  opt.trials = 6;
  opt.seed = 5;
  opt.isolate = true;
  opt.jobs = 2;
  opt.shrink = true;
  opt.gen.misbehave = true;
  const auto report = chaos::run_search(spec, opt);
  EXPECT_EQ(report.trials_run, 6);
  for (const auto& f : report.failures) {
    EXPECT_NE(f.result.verdict, chaos::Verdict::kProcessCrash)
        << f.result.crash_signal << ": " << f.result.stderr_tail;
    // A shrunk plan must replay to the same verdict — that is what the
    // report's replay command promises.
    EXPECT_EQ(f.shrunk_result.verdict, f.result.verdict);
  }
  const auto again = chaos::run_search(spec, opt);
  EXPECT_EQ(report.to_json(), again.to_json());
}

}  // namespace
}  // namespace phantom
