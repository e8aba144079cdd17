// The chaos search loop: generate → run → judge → shrink.
//
// run_search() drives `trials` randomized fault schedules through one
// scenario. The master seed fixes everything: the simulator seed for
// every trial (so the fault-free baseline is literally "the same run
// without faults") and, via splitmix64, each trial's private
// plan-generator stream. The report therefore reproduces byte-for-byte
// for the same (spec, options), and every failure carries a minimized
// plan that replays under `phantom_cli --fault-plan=...`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/generator.h"
#include "chaos/isolate.h"
#include "chaos/runner.h"
#include "chaos/shrinker.h"
#include "chaos/triage.h"

namespace phantom::chaos {

struct SearchOptions {
  int trials = 100;
  std::uint64_t seed = 1;
  /// Stop searching after this many failures (each costs a shrink).
  int max_failures = 10;
  bool shrink = true;
  /// Process isolation: run every trial — and every shrink probe — in a
  /// forked, rlimited child (chaos/isolate), so a SIGSEGV, sanitizer
  /// abort or OOM in the system under test becomes a kProcessCrash
  /// failure instead of killing the search. Off by default in the
  /// library API; phantom_chaos turns it on unless --no-isolate.
  bool isolate = false;
  /// Concurrent isolated trials (children); only meaningful with
  /// `isolate`. The report is byte-identical for any jobs value.
  int jobs = 1;
  IsolateOptions isolation;
  /// JSONL checkpoint path (isolation only); empty = no checkpointing.
  /// An existing matching file resumes: completed trials are loaded
  /// instead of re-run.
  std::string checkpoint;
  GenOptions gen;
  TrialOptions trial;
  ShrinkOptions shrinker;
};

/// One failing trial, with its minimized reproduction.
struct Failure {
  int trial = 0;                   ///< trial index within the search
  fault::FaultPlan plan;           ///< as generated
  fault::FaultPlan shrunk_plan;    ///< minimized (== plan when !shrink)
  TrialResult result;              ///< verdict on the generated plan
  TrialResult shrunk_result;       ///< verdict re-running the minimized plan
  int shrink_probes = 0;
};

struct SearchReport {
  exp::Scenario spec;
  SearchOptions options;
  int trials_run = 0;
  int passed = 0;
  double baseline_share_mbps = 0.0;
  std::vector<Failure> failures;
  /// Failures deduplicated into unique classes (chaos/triage), ordered
  /// by first occurrence.
  std::vector<TriagedClass> classes;
  /// SIGINT drained the supervised run; the report covers only the
  /// trials that completed (resume via SearchOptions::checkpoint).
  bool interrupted = false;
  /// Trials loaded from the checkpoint instead of re-run.
  int resumed = 0;

  [[nodiscard]] bool clean() const { return failures.empty(); }

  /// Deterministic JSON rendering: field order fixed, doubles via %.6g,
  /// no timestamps, hostnames or pointers — the same search produces
  /// byte-identical output on every run.
  [[nodiscard]] std::string to_json() const;

  /// The phantom_cli invocation that replays `f`'s minimized plan on
  /// the identical topology, seed and horizon.
  [[nodiscard]] std::string cli_replay(const Failure& f) const;
};

/// Runs the search. Throws only if the scenario itself is unusable
/// (fault-free baseline trips the watchdog, or the horizon leaves no
/// fault window); individual trial crashes become kCrash failures.
[[nodiscard]] SearchReport run_search(const exp::Scenario& spec,
                                      const SearchOptions& opt = {});

}  // namespace phantom::chaos
