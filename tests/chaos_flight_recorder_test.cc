// Flight recorder plumbing: failing chaos trials carry the last
// structured events through triage, checkpoints and the search report.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "chaos/json.h"
#include "chaos/runner.h"
#include "chaos/supervisor.h"
#include "chaos/triage.h"
#include "obs/event_log.h"

namespace phantom {
namespace {

using sim::Time;

exp::Scenario smoke_spec() {
  exp::Scenario spec;
  spec.rate_mbps = 40.0;
  spec.horizon = Time::ms(600);
  return spec;
}

TEST(FlightRecorderTest, FailingTrialAttachesRecentEvents) {
  const auto spec = smoke_spec();
  chaos::TrialOptions opt;
  opt.watchdog.max_events = 5000;  // forces a watchdog failure mid-run
  const auto r = chaos::run_trial(spec, 1, {}, opt);
  ASSERT_TRUE(r.failed());
  ASSERT_FALSE(r.flight_recorder.empty());
  EXPECT_LE(r.flight_recorder.size(), 16u);
  for (const std::string& line : r.flight_recorder) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos) << line;
  }
}

TEST(FlightRecorderTest, PassingTrialCarriesNoRecorder) {
  const auto spec = smoke_spec();
  const auto r = chaos::run_trial(spec, 1, {});
  ASSERT_FALSE(r.failed()) << r.detail;
  EXPECT_TRUE(r.flight_recorder.empty());
}

TEST(FlightRecorderTest, FailingTrialsAreStillDeterministic) {
  const auto spec = smoke_spec();
  chaos::TrialOptions opt;
  opt.watchdog.max_events = 5000;
  const auto a = chaos::run_trial(spec, 4, {}, opt);
  const auto b = chaos::run_trial(spec, 4, {}, opt);
  EXPECT_EQ(a.flight_recorder, b.flight_recorder);
}

TEST(FlightRecorderTest, TriageKeepsTheRepresentativesRecorder) {
  chaos::TrialResult r;
  r.verdict = chaos::Verdict::kInvariant;
  r.detail = "cell conservation violated";
  r.flight_recorder = {"{\"kind\":\"cell_drop\"}", "{\"kind\":\"rm_forward\"}"};
  chaos::TrialResult later = r;
  later.flight_recorder = {"{\"kind\":\"cell_enqueue\"}"};
  const std::vector<std::pair<int, const chaos::TrialResult*>> failures{
      {0, &r}, {1, &later}};
  const auto classes = chaos::triage_failures(failures);
  ASSERT_EQ(classes.size(), 1u);  // same fingerprint
  EXPECT_EQ(classes[0].flight_recorder, r.flight_recorder);
}

TEST(FlightRecorderTest, CheckpointRowRoundTripsTheRecorder) {
  chaos::TrialResult r;
  r.verdict = chaos::Verdict::kNoReconverge;
  r.detail = "share stuck at 12.5 Mb/s";
  r.events = 123456;
  r.flight_recorder = {
      "{\"t_ns\":1,\"kind\":\"cell_drop\",\"reason\":\"queue_limit\"}",
      "{\"t_ns\":2,\"kind\":\"fault_fired\",\"what\":\"outage \\\"x\\\"\"}"};
  const std::string row = chaos::checkpoint_row(7, "outage:dest0:250:50", r);
  const auto parsed = chaos::parse_checkpoint_row(row);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, 7);
  EXPECT_EQ(parsed->second.verdict, r.verdict);
  EXPECT_EQ(parsed->second.flight_recorder, r.flight_recorder);
}

TEST(FlightRecorderTest, OlderCheckpointRowsWithoutRecorderStillParse) {
  chaos::TrialResult r;
  r.verdict = chaos::Verdict::kPass;
  std::string row = chaos::checkpoint_row(3, "", r);
  const auto cut = row.find(", \"flight_recorder\"");
  ASSERT_NE(cut, std::string::npos);
  row = row.substr(0, cut) + "}";  // what a pre-recorder build wrote
  const auto parsed = chaos::parse_checkpoint_row(row);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->second.flight_recorder.empty());
}

TEST(FlightRecorderTest, JsonStringArrayParsing) {
  // JsonLineReader holds a reference; the lines must outlive it.
  const std::string empty_line = "{\"flight_recorder\": []}";
  chaos::JsonLineReader empty{empty_line};
  const auto none = empty.find_string_array("flight_recorder");
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());

  const std::string two_line =
      "{\"flight_recorder\": [\"a\\\"b\", \"c\\\\d\"]}";
  chaos::JsonLineReader two{two_line};
  const auto lines = two.find_string_array("flight_recorder");
  ASSERT_TRUE(lines.has_value());
  ASSERT_EQ(lines->size(), 2u);
  EXPECT_EQ((*lines)[0], "a\"b");
  EXPECT_EQ((*lines)[1], "c\\d");

  const std::string bad_line = "{\"flight_recorder\": [\"unterminated}";
  chaos::JsonLineReader bad{bad_line};
  EXPECT_FALSE(bad.find_string_array("flight_recorder").has_value());
}

}  // namespace
}  // namespace phantom
