// Soak suite (label: soak, excluded from the default ctest run): longer
// chaos searches at full link rate over every algorithm and scenario.
//
// Phantom is held to zero failures of any kind. The baseline
// algorithms are allowed to miss reconvergence deadlines or drift from
// their fault-free operating point (those are the findings the harness
// exists to surface — APRC's slow burst recovery, for instance), but
// nothing may ever wedge the simulator, violate an invariant, or crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>

#include "chaos/search.h"

namespace phantom {
namespace {

using sim::Time;

chaos::SearchReport soak(exp::Scenario::Kind kind, exp::Algorithm alg) {
  exp::Scenario spec;
  spec.kind = kind;
  spec.algorithm = alg;
  spec.sessions = 4;
  spec.rate_mbps = 150.0;
  spec.horizon = Time::ms(600);
  chaos::SearchOptions opt;
  opt.trials = 60;
  opt.seed = 2026;
  opt.shrink = false;  // soak measures robustness, not repro minimality
  opt.max_failures = opt.trials;
  // Soak the way the CLI runs: every trial in an isolated child, fanned
  // out across cores. The report is byte-identical to a serial run.
  opt.isolate = true;
  opt.jobs = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u));
  return chaos::run_search(spec, opt);
}

class ChaosSoak : public testing::TestWithParam<
                      std::tuple<exp::Scenario::Kind, exp::Algorithm>> {};

TEST_P(ChaosSoak, NoStructuralFailuresUnderRandomFaults) {
  const auto [kind, alg] = GetParam();
  const auto report = soak(kind, alg);
  EXPECT_EQ(report.trials_run, 60);
  for (const auto& f : report.failures) {
    // Structural failures are bugs in any algorithm or in the harness.
    EXPECT_NE(f.result.verdict, chaos::Verdict::kWatchdog) << f.result.detail;
    EXPECT_NE(f.result.verdict, chaos::Verdict::kInvariant) << f.result.detail;
    EXPECT_NE(f.result.verdict, chaos::Verdict::kCrash) << f.result.detail;
  }
  if (alg == exp::Algorithm::kPhantom) {
    // The paper's robustness claim, held strictly.
    EXPECT_TRUE(report.clean())
        << report.failures.size() << " failures, first: "
        << chaos::to_string(report.failures.front().result.verdict) << " — "
        << report.failures.front().result.detail << " (plan "
        << report.failures.front().plan.to_spec() << ")";
  }
}

std::string soak_name(
    const testing::TestParamInfo<ChaosSoak::ParamType>& info) {
  return exp::to_string(std::get<0>(info.param)) + "_" +
         exp::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllScenarios, ChaosSoak,
    testing::Combine(testing::Values(exp::Scenario::Kind::kBottleneck,
                                     exp::Scenario::Kind::kParking),
                     testing::Values(exp::Algorithm::kPhantom,
                                     exp::Algorithm::kEprca,
                                     exp::Algorithm::kAprc,
                                     exp::Algorithm::kCapc,
                                     exp::Algorithm::kErica)),
    soak_name);

}  // namespace
}  // namespace phantom
