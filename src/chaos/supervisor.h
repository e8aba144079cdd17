// Supervision of a pool of process-isolated chaos trials.
//
// The Supervisor forks up to `jobs` children (chaos/isolate) at a time,
// launching strictly in trial-index order, and merges results back by
// index — so the finished search is a pure function of (spec, seed,
// plans) and the report is byte-identical at --jobs 1, 8 or 64. It is
// deliberately single-threaded: all concurrency lives in child
// processes, multiplexed with poll(2), so there is nothing to fork from
// a thread and nothing to race.
//
// Robustness duties beyond fan-out:
//  * infra failures (fork/pipe exhaustion) are retried with bounded
//    exponential backoff — they are harness trouble, never verdicts;
//  * SIGINT drains gracefully: stop launching, let in-flight children
//    finish, checkpoint what completed (a second SIGINT kills them);
//  * every completed trial is appended to a JSONL checkpoint, so an
//    interrupted search resumes without re-running finished trials;
//  * the early-stop rule (`max_failures`) is evaluated on the decided
//    prefix in index order — the exact serial semantics — and any
//    speculative result past the cutoff is discarded.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/isolate.h"
#include "exp/scenario.h"
#include "fault/fault_plan.h"

namespace phantom::chaos {

struct SupervisorOptions {
  /// Concurrent isolated trials (children). Clamped to [1, 128].
  int jobs = 1;
  /// Spawn retries per trial for infrastructure failures (fork/pipe
  /// errors). Verdicts — including kProcessCrash — are never retried.
  int max_retries = 3;
  /// First retry backoff in wall ms; doubles per attempt.
  int retry_backoff_ms = 10;
  IsolateOptions isolate;
  /// JSONL checkpoint path; empty disables checkpointing. If the file
  /// exists and matches (spec, seed, trial count, plans), its completed
  /// trials are loaded instead of re-run; a mismatched file is an error
  /// (never silently ignored).
  std::string checkpoint_path;
};

struct SupervisedOutcome {
  /// results[i] is engaged iff trial i completed (run now or resumed);
  /// trials past the max_failures cutoff and trials interrupted by
  /// SIGINT stay disengaged.
  std::vector<std::optional<TrialResult>> results;
  bool interrupted = false;
  int resumed = 0;  ///< trials loaded from the checkpoint file
};

class Supervisor {
 public:
  Supervisor(exp::Scenario spec, std::uint64_t seed, TrialOptions trial,
             std::optional<Baseline> baseline, SupervisorOptions opt);

  /// Runs plans[i] as trial i. Throws std::runtime_error on persistent
  /// infrastructure failure or an unusable checkpoint file.
  [[nodiscard]] SupervisedOutcome run(
      const std::vector<fault::FaultPlan>& plans, int max_failures);

 private:
  exp::Scenario spec_;
  std::uint64_t seed_;
  TrialOptions trial_;
  std::optional<Baseline> baseline_;
  SupervisorOptions opt_;
};

/// One checkpoint row (exposed for tests). `plan_spec` guards against
/// resuming with a different seed/generator than the file was written
/// with.
[[nodiscard]] std::string checkpoint_row(int trial,
                                         const std::string& plan_spec,
                                         const TrialResult& r);
[[nodiscard]] std::optional<std::pair<int, TrialResult>> parse_checkpoint_row(
    const std::string& line, std::string* plan_spec = nullptr);

}  // namespace phantom::chaos
