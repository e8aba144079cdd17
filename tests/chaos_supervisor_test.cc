// Supervised, process-isolated chaos search: crash containment, triage,
// parallel determinism, checkpoint round-trips and resume.
#include <gtest/gtest.h>

#include <signal.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "chaos/search.h"
#include "chaos/triage.h"

namespace phantom {
namespace {

using sim::Time;

exp::Scenario smoke_spec() {
  exp::Scenario spec;
  spec.rate_mbps = 40.0;
  spec.horizon = Time::ms(600);
  return spec;
}

int g_prepare_calls = 0;

// The tier-1 crash-containment contract: a trial whose prepare hook
// SIGSEGVs must surface as a structured kProcessCrash — signal name and
// all — while the search completes every remaining trial and triage
// folds the repeats into one failure class.
TEST(SupervisorTest, CrashingPrepareHookIsContainedAndTriaged) {
  auto spec = smoke_spec();
  chaos::SearchOptions opt;
  opt.trials = 3;
  opt.seed = 11;
  opt.max_failures = 10;
  opt.shrink = false;
  opt.isolate = true;
  opt.jobs = 2;
  g_prepare_calls = 0;
  // Call #1 is the in-process baseline; every later call happens inside
  // a forked trial child (which inherits the counter at 1) and dies
  // there.
  opt.trial.prepare = [](sim::Simulator&, topo::AbrNetwork&) {
    if (++g_prepare_calls > 1) ::raise(SIGSEGV);
  };

  const auto report = chaos::run_search(spec, opt);

  // Sanitizer runtimes intercept the SIGSEGV and exit with their own
  // code instead of dying by signal; containment and triage must hold
  // either way, the signal-name assertions only in plain builds.
  const bool plain_build = chaos::address_space_limit_supported();
  EXPECT_EQ(report.trials_run, 3) << "a crash stopped the search early";
  EXPECT_FALSE(report.interrupted);
  ASSERT_EQ(report.failures.size(), 3u);
  for (const auto& f : report.failures) {
    EXPECT_EQ(f.result.verdict, chaos::Verdict::kProcessCrash);
    if (plain_build) {
      EXPECT_EQ(f.result.crash_signal, "SIGSEGV");
      EXPECT_NE(f.result.detail.find("SIGSEGV"), std::string::npos)
          << f.result.detail;
    }
  }
  ASSERT_EQ(report.classes.size(), 1u) << "triage split one bug into classes";
  EXPECT_EQ(report.classes.front().trials.size(), 3u);
  if (plain_build) {
    EXPECT_EQ(report.classes.front().signal, "SIGSEGV");
    EXPECT_NE(report.to_json().find("\"crash_signal\": \"SIGSEGV\""),
              std::string::npos);
  }
}

// The determinism contract behind --jobs: a fixed seed renders the
// identical report bytes serial, parallel, and without isolation.
TEST(SupervisorTest, ReportBytesIdenticalAcrossJobsAndIsolation) {
  const auto spec = smoke_spec();
  chaos::SearchOptions opt;
  opt.trials = 8;
  opt.seed = 3;
  opt.isolate = true;
  opt.jobs = 1;
  const auto serial = chaos::run_search(spec, opt);
  EXPECT_TRUE(serial.clean()) << serial.to_json();

  opt.jobs = 4;
  const auto parallel = chaos::run_search(spec, opt);

  chaos::SearchOptions plain = opt;
  plain.isolate = false;
  plain.jobs = 1;
  const auto in_process = chaos::run_search(spec, plain);

  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_json(), in_process.to_json());
}

TEST(SupervisorTest, CheckpointRowRoundTripsHostileDetails) {
  chaos::TrialResult r;
  r.verdict = chaos::Verdict::kProcessCrash;
  r.detail = "quote \" backslash \\ newline \n tab \t";
  r.events = 123456789;
  r.violations = 3;
  r.reconverge_latency = Time::ns(987654321);
  r.settled_share_mbps = 0.1 + 0.2;  // needs %.17g to round-trip
  r.peak_queue_cells = 17.25;
  r.crash_signal = "SIGSEGV";
  r.stderr_tail = "ASan says \"boom\" at 0x1\npath\\to\\thing";

  const std::string row = chaos::checkpoint_row(42, "restart@120ms:sw0", r);
  EXPECT_EQ(row.find('\n'), std::string::npos) << "JSONL rows are one line";

  std::string plan_spec;
  const auto parsed = chaos::parse_checkpoint_row(row, &plan_spec);
  ASSERT_TRUE(parsed) << row;
  EXPECT_EQ(parsed->first, 42);
  EXPECT_EQ(plan_spec, "restart@120ms:sw0");
  const auto& q = parsed->second;
  EXPECT_EQ(q.verdict, r.verdict);
  EXPECT_EQ(q.detail, r.detail);
  EXPECT_EQ(q.events, r.events);
  EXPECT_EQ(q.violations, r.violations);
  ASSERT_TRUE(q.reconverge_latency);
  EXPECT_EQ(q.reconverge_latency->nanoseconds(), 987654321);
  EXPECT_EQ(q.settled_share_mbps, r.settled_share_mbps);
  EXPECT_EQ(q.peak_queue_cells, r.peak_queue_cells);
  EXPECT_EQ(q.crash_signal, r.crash_signal);
  EXPECT_EQ(q.exit_code, r.exit_code);
  EXPECT_EQ(q.stderr_tail, r.stderr_tail);

  // Engaged-vs-null latency and torn rows both decode safely.
  r.reconverge_latency.reset();
  const auto null_latency =
      chaos::parse_checkpoint_row(chaos::checkpoint_row(0, "p", r));
  ASSERT_TRUE(null_latency);
  EXPECT_FALSE(null_latency->second.reconverge_latency);
  EXPECT_FALSE(chaos::parse_checkpoint_row(row.substr(0, row.size() / 2)));
}

TEST(SupervisorTest, ResumeSkipsCompletedTrialsAndRejectsMismatch) {
  const auto spec = smoke_spec();
  const std::string path =
      ::testing::TempDir() + "phantom_chaos_resume_test.jsonl";
  std::remove(path.c_str());

  chaos::SearchOptions opt;
  opt.trials = 5;
  opt.seed = 9;
  opt.isolate = true;
  opt.checkpoint = path;
  const auto first = chaos::run_search(spec, opt);
  EXPECT_EQ(first.resumed, 0);
  EXPECT_EQ(first.trials_run, 5);

  // Same search again: everything loads from the checkpoint, nothing
  // re-runs, and the report bytes do not change.
  const auto second = chaos::run_search(spec, opt);
  EXPECT_EQ(second.resumed, 5);
  EXPECT_EQ(first.to_json(), second.to_json());

  // A checkpoint from a different seed is an error, never a silent
  // partial resume.
  chaos::SearchOptions other = opt;
  other.seed = 10;
  EXPECT_THROW((void)chaos::run_search(spec, other), std::runtime_error);
  std::remove(path.c_str());
}

// A crash mid-append leaves a torn final JSONL row. Resume must drop
// the partial row with a warning, keep every intact row, and re-run
// only the trial whose row was lost — ending with the same report as
// an uninterrupted search.
TEST(SupervisorTest, ResumeDropsTruncatedTrailingCheckpointRow) {
  const auto spec = smoke_spec();
  const std::string path =
      ::testing::TempDir() + "phantom_chaos_torn_row_test.jsonl";
  std::remove(path.c_str());

  chaos::SearchOptions opt;
  opt.trials = 5;
  opt.seed = 9;
  opt.isolate = true;
  opt.checkpoint = path;
  const auto first = chaos::run_search(spec, opt);
  EXPECT_EQ(first.trials_run, 5);

  // Tear the last row in half, as a crash between write and flush would.
  std::string contents;
  {
    std::ifstream in{path, std::ios::binary};
    std::stringstream ss;
    ss << in.rdbuf();
    contents = ss.str();
  }
  ASSERT_FALSE(contents.empty());
  ASSERT_EQ(contents.back(), '\n');
  const auto last_line = contents.rfind('\n', contents.size() - 2) + 1;
  const std::size_t row_len = contents.size() - last_line;
  ASSERT_GT(row_len, 2u);
  contents.resize(last_line + row_len / 2);
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << contents;
  }

  ::testing::internal::CaptureStderr();
  const auto second = chaos::run_search(spec, opt);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(second.resumed, 4) << "intact rows must all resume";
  EXPECT_EQ(second.trials_run, 5) << "the torn trial must re-run";
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_NE(warning.find("unparseable row"), std::string::npos) << warning;
  EXPECT_NE(warning.find("line 6"), std::string::npos) << warning;

  // A trailing row of outright garbage gets the same treatment.
  {
    std::ofstream out{path, std::ios::binary | std::ios::app};
    out << "{\"trial\": not json at all\n";
  }
  ::testing::internal::CaptureStderr();
  const auto third = chaos::run_search(spec, opt);
  const std::string garbage_warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(third.resumed, 5);
  EXPECT_EQ(first.to_json(), third.to_json());
  EXPECT_NE(garbage_warning.find("unparseable row"), std::string::npos)
      << garbage_warning;
  std::remove(path.c_str());
}

// Trials that finish past the max_failures cutoff reach the checkpoint
// but not the report. Resuming must not count them either, or the
// resumed count would depend on how far speculative children got.
TEST(SupervisorTest, ResumeCountsOnlyTrialsInsideTheCutoff) {
  auto spec = smoke_spec();
  spec.algorithm = exp::Algorithm::kAprc;
  const std::string path =
      ::testing::TempDir() + "phantom_chaos_resume_cutoff_test.jsonl";
  std::remove(path.c_str());

  chaos::SearchOptions opt;
  opt.trials = 7;
  opt.seed = 3;  // APRC fails trials 4 and 6 of this search
  opt.shrink = false;
  opt.isolate = true;
  opt.jobs = 2;
  opt.checkpoint = path;
  const auto full = chaos::run_search(spec, opt);
  ASSERT_EQ(full.trials_run, 7);
  ASSERT_GE(full.failures.size(), 2u);
  const int cutoff = full.failures.front().trial;

  opt.max_failures = 1;
  const auto resumed = chaos::run_search(spec, opt);
  EXPECT_EQ(resumed.resumed, cutoff + 1);
  chaos::SearchOptions fresh = opt;
  fresh.checkpoint.clear();
  EXPECT_EQ(resumed.to_json(), chaos::run_search(spec, fresh).to_json());
  std::remove(path.c_str());
}

TEST(SupervisorTest, TriageMasksVolatileSpecifics) {
  EXPECT_EQ(chaos::normalize_failure_text("addr 0x7f3a12 after 123 events"),
            chaos::normalize_failure_text("addr 0x991b00 after 77 events"));

  chaos::TrialResult a;
  a.verdict = chaos::Verdict::kProcessCrash;
  a.crash_signal = "SIGSEGV";
  a.detail = "trial process killed by SIGSEGV after ~131072 events";
  a.stderr_tail = "ERROR: AddressSanitizer: SEGV on unknown address 0x08";
  chaos::TrialResult b = a;
  b.detail = "trial process killed by SIGSEGV after ~65536 events";
  b.stderr_tail = "ERROR: AddressSanitizer: SEGV on unknown address 0xf0";
  // Same bug, different event counts and fault addresses: one class.
  EXPECT_EQ(chaos::failure_fingerprint(a), chaos::failure_fingerprint(b));

  chaos::TrialResult c = a;
  c.crash_signal = "SIGABRT";
  EXPECT_NE(chaos::failure_fingerprint(a), chaos::failure_fingerprint(c));
}

}  // namespace
}  // namespace phantom
