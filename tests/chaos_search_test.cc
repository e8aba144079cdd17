// End-to-end chaos search: planted regressions are found and shrunk to
// minimal replayable schedules; healthy searches are clean and
// byte-identical across runs.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/search.h"
#include "exp/flags.h"

namespace phantom {
namespace {

using sim::Time;

/// Planted regression: behaves exactly like the wrapped controller until
/// the first reset(), after which it stops writing backward-RM feedback
/// — a controller that "forgets how to control" after a restart.
class BreaksAfterRestart final : public atm::PortController {
 public:
  explicit BreaksAfterRestart(std::unique_ptr<atm::PortController> inner)
      : inner_{std::move(inner)} {}

  void on_cell_accepted(const atm::Cell& c, std::size_t q) override {
    inner_->on_cell_accepted(c, q);
  }
  void on_cell_dropped(const atm::Cell& c) override {
    inner_->on_cell_dropped(c);
  }
  void on_cell_transmitted(const atm::Cell& c) override {
    inner_->on_cell_transmitted(c);
  }
  void on_forward_rm(atm::Cell& c, std::size_t q) override {
    inner_->on_forward_rm(c, q);
  }
  void on_backward_rm(atm::Cell& c, std::size_t q) override {
    if (!dead_) inner_->on_backward_rm(c, q);
  }
  void reset() override {
    dead_ = true;
    inner_->reset();
  }
  [[nodiscard]] bool mark_efci(std::size_t q) const override {
    return inner_->mark_efci(q);
  }
  [[nodiscard]] sim::Rate fair_share() const override {
    return inner_->fair_share();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<atm::PortController> inner_;
  bool dead_ = false;
};

exp::Scenario smoke_spec() {
  exp::Scenario spec;
  spec.rate_mbps = 40.0;
  spec.horizon = Time::ms(600);
  return spec;
}

TEST(SearchTest, FindsAndShrinksAPlantedRegression) {
  auto spec = smoke_spec();
  spec.factory_override = [](sim::Simulator& sim, sim::Rate rate) {
    return std::make_unique<BreaksAfterRestart>(
        exp::make_factory(exp::Algorithm::kPhantom)(sim, rate));
  };
  chaos::SearchOptions opt;
  opt.trials = 100;
  opt.max_failures = 1;
  opt.seed = 1;
  const auto report = chaos::run_search(spec, opt);
  ASSERT_FALSE(report.clean()) << "planted regression not found in "
                               << report.trials_run << " trials";
  const auto& f = report.failures.front();
  // The minimal repro: at most 3 events (in practice the lone restart).
  EXPECT_LE(f.shrunk_plan.events.size(), 3u) << f.shrunk_plan.to_spec();
  EXPECT_EQ(f.shrunk_result.verdict, f.result.verdict)
      << "shrinking changed the failure mode";
  bool has_restart = false;
  for (const auto& e : f.shrunk_plan.events) {
    has_restart |= e.kind == fault::FaultEvent::Kind::kRestart;
  }
  EXPECT_TRUE(has_restart) << f.shrunk_plan.to_spec();

  // The minimized plan replays: parsing its text form and re-running
  // the trial reproduces the oracle verdict from the report.
  const auto replayed = fault::FaultPlan::parse(f.shrunk_plan.to_spec());
  EXPECT_EQ(replayed, f.shrunk_plan);
  const auto base = chaos::run_baseline(spec, opt.seed, opt.trial);
  const auto rerun =
      chaos::run_trial(spec, opt.seed, replayed, opt.trial, &base);
  EXPECT_EQ(rerun.verdict, f.result.verdict);
  EXPECT_EQ(rerun.detail, f.shrunk_result.detail);
}

/// Parses a replay line through phantom_cli's flag table into `parsed`,
/// its words split and its shell quoting removed as a shell would.
/// Returns parse_flags' exit code: nullopt when every flag parsed.
std::optional<int> parse_replay(std::string line, exp::CliArgs& parsed) {
  std::erase(line, '\'');
  std::istringstream words{line};
  std::vector<std::string> argv{std::istream_iterator<std::string>{words}, {}};
  EXPECT_EQ(argv.front(), "phantom_cli");
  std::vector<const char*> args;
  for (const std::string& w : argv) args.push_back(w.c_str());
  exp::FlagTable flags = exp::cli_flags(parsed);
  return exp::parse_flags(flags, static_cast<int>(args.size()), args.data());
}

TEST(SearchTest, ReplayLineParsesBackThroughPhantomCliFlags) {
  chaos::SearchReport report;
  report.spec.kind = exp::Scenario::Kind::kParking;
  report.spec.algorithm = exp::Algorithm::kAprc;
  report.spec.sessions = 4;
  report.spec.rate_mbps = 149.99999999999997;  // 17 significant digits
  report.spec.horizon = Time::ns(600'000'123);  // 600.000123 ms
  report.spec.overload = true;
  report.options.seed = 7;
  chaos::Failure f;
  f.shrunk_plan = fault::FaultPlan::parse("restart:dest0:250.5;leave:1:300");

  const std::string line = report.cli_replay(f);
  exp::CliArgs parsed;
  ASSERT_EQ(parse_replay(line, parsed), std::nullopt) << line;
  EXPECT_EQ(exp::kind_from_string(parsed.scenario), report.spec.kind);
  EXPECT_EQ(exp::algorithm_from_string(parsed.algorithm),
            report.spec.algorithm);
  EXPECT_EQ(parsed.spec.sessions, report.spec.sessions);
  EXPECT_EQ(parsed.spec.rate_mbps, report.spec.rate_mbps);
  EXPECT_EQ(parsed.spec.horizon, report.spec.horizon);
  EXPECT_EQ(parsed.spec.overload, report.spec.overload);
  EXPECT_EQ(parsed.seed, report.options.seed);
  EXPECT_EQ(fault::FaultPlan::parse(parsed.fault_plan), f.shrunk_plan);
  // The JSON report names the same scenario.
  EXPECT_NE(report.to_json().find("\"rate_mbps\": 149.99999999999997, "
                                  "\"horizon_ms\": 600.000123}"),
            std::string::npos);
}

TEST(SearchTest, PaperLotReplayLineNamesAScenarioPhantomCliReads) {
  chaos::SearchReport report;
  report.spec.kind = exp::Scenario::Kind::kPaperLot;
  report.spec.sessions = 5;
  report.options.seed = 3;
  chaos::Failure f;
  f.shrunk_plan = fault::FaultPlan::parse("outage:trunk1:250:50");

  const std::string line = report.cli_replay(f);
  exp::CliArgs parsed;
  ASSERT_EQ(parse_replay(line, parsed), std::nullopt) << line;
  EXPECT_EQ(exp::kind_from_string(parsed.scenario),
            exp::Scenario::Kind::kPaperLot);
  EXPECT_EQ(parsed.spec.sessions, 5);
  EXPECT_EQ(parsed.seed, 3u);
  EXPECT_EQ(fault::FaultPlan::parse(parsed.fault_plan), f.shrunk_plan);
}

TEST(SearchTest, ReplayLineSaysNoFlagSetsTheLotRates) {
  chaos::SearchReport report;
  report.spec.kind = exp::Scenario::Kind::kPaperLot;
  report.spec.sessions = 3;
  report.spec.lot_rates_mbps = {150, 37.5};
  chaos::Failure f;
  f.shrunk_plan = fault::FaultPlan::parse("restart:dest0:250.5");
  EXPECT_EQ(report.cli_replay(f),
            "no phantom_cli replay: no flag sets lot_rates_mbps=150,37.5 "
            "(--fault-plan='restart:dest0:250.5')");
}

TEST(SearchTest, HealthyControllerSearchIsCleanAndDeterministic) {
  const auto spec = smoke_spec();
  chaos::SearchOptions opt;
  opt.trials = 25;
  opt.seed = 3;
  const auto a = chaos::run_search(spec, opt);
  EXPECT_TRUE(a.clean()) << a.to_json();
  EXPECT_EQ(a.trials_run, 25);
  EXPECT_EQ(a.passed, 25);

  // Same seed, same spec: the whole report is byte-identical — the
  // anti-flakiness property the harness is built on.
  const auto b = chaos::run_search(spec, opt);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(SearchTest, DifferentSeedsExploreDifferentSchedules) {
  const auto spec = smoke_spec();
  chaos::SearchOptions a;
  a.trials = 1;
  a.seed = 1;
  chaos::SearchOptions b;
  b.trials = 1;
  b.seed = 2;
  // Reach into the generator the same way run_search does: reports with
  // zero failures carry no plans, so compare generated plans directly.
  sim::Rng ra{1};
  sim::Rng rb{2};
  EXPECT_NE(chaos::generate_plan(ra, spec), chaos::generate_plan(rb, spec));
  // And the searches themselves both run clean on the healthy spec.
  EXPECT_TRUE(chaos::run_search(spec, a).clean());
  EXPECT_TRUE(chaos::run_search(spec, b).clean());
}

TEST(SearchTest, ReportJsonCarriesReplayCommands) {
  auto spec = smoke_spec();
  spec.factory_override = [](sim::Simulator& sim, sim::Rate rate) {
    return std::make_unique<BreaksAfterRestart>(
        exp::make_factory(exp::Algorithm::kPhantom)(sim, rate));
  };
  chaos::SearchOptions opt;
  opt.trials = 100;
  opt.max_failures = 1;
  const auto report = chaos::run_search(spec, opt);
  ASSERT_FALSE(report.clean());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"replay\": \"phantom_cli --scenario=bottleneck"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("--fault-plan='"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shrunk_plan\""), std::string::npos) << json;
}

}  // namespace
}  // namespace phantom
