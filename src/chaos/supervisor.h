// Supervision of a pool of process-isolated chaos trials.
//
// supervise() forks up to `jobs` children (chaos/isolate) at a time,
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

#include <optional>
#include <vector>

#include "chaos/search.h"

namespace phantom::chaos {

struct SupervisedOutcome {
  /// results[i] is engaged iff trial i completed (run now or resumed);
  /// trials past the max_failures cutoff and trials interrupted by
  /// SIGINT stay disengaged.
  std::vector<std::optional<TrialResult>> results;
  bool interrupted = false;
  /// Engaged results loaded from the checkpoint file instead of re-run.
  int resumed = 0;
};

/// Runs plans[i] as trial i, each in an isolated child, under `opt`'s
/// trial options, isolation limits, jobs, max_failures and checkpoint
/// (empty: none). A checkpoint file that exists and matches (spec,
/// seed, trial count, plans) supplies its completed trials instead of
/// re-running them; a mismatched file is an error, never silently
/// ignored. Throws std::runtime_error on persistent infrastructure
/// failure or an unusable checkpoint file.
[[nodiscard]] SupervisedOutcome supervise(
    const exp::Scenario& spec, const SearchOptions& opt,
    const Baseline& baseline, const std::vector<fault::FaultPlan>& plans);

}  // namespace phantom::chaos
