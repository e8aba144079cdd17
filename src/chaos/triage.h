// Failure triage: deduplicating a pile of failing trials into unique
// failure classes.
//
// A 500-trial soak that hits the same null-deref 40 times should read
// "1 unique failure class (process-crash/SIGSEGV), 40 trials", not 40
// near-identical entries. Failures are grouped by a fingerprint built
// from (verdict, crash signal, normalized message): the salient line of
// an assert/sanitizer report for process crashes, the oracle's detail
// otherwise, with volatile specifics (counts, times, addresses) masked
// so two instances of one bug fingerprint identically.
#pragma once

#include <string>
#include <tuple>
#include <vector>

#include "chaos/runner.h"
#include "fault/fault_plan.h"

namespace phantom::chaos {

struct TriagedClass {
  std::string fingerprint;
  Verdict verdict = Verdict::kPass;
  std::string signal;         ///< crash signal name, empty unless kProcessCrash
  std::string sample_detail;  ///< detail of the first (representative) member
  /// The representative member's flight recorder (the last structured
  /// events before its verdict; see TrialResult::flight_recorder).
  std::vector<std::string> flight_recorder;
  std::vector<int> trials;    ///< member trial indices, ascending
};

/// Masks volatile specifics in a failure message: hex addresses become
/// '@', digit runs become '#', whitespace runs collapse to one space.
[[nodiscard]] std::string normalize_failure_text(const std::string& text);

/// The salient line of a crash's stderr: the first line mentioning a
/// sanitizer error, runtime error or assert; empty when none matches.
[[nodiscard]] std::string salient_stderr_line(const std::string& stderr_tail);

/// The grouping key. Stable across reruns of a deterministic failure.
[[nodiscard]] std::string failure_fingerprint(const TrialResult& r);

/// Plan-aware grouping key: a trial whose plan schedules source
/// defection fingerprints as "verdict|misbehave|N" (N = distinct
/// misbehaving sessions), so every fairness/invariant failure caused by
/// the same adversary pressure dedups into one class regardless of
/// which oracle message fired first. Process crashes keep their
/// signal-based fingerprint (the crash identity matters more than what
/// provoked it), and a null or misbehave-free plan falls back to the
/// plain fingerprint.
[[nodiscard]] std::string failure_fingerprint(const TrialResult& r,
                                              const fault::FaultPlan* plan);

/// Groups (trial index, result, plan) triples into classes by the
/// plan-aware failure_fingerprint, ordered by first occurrence. Plans
/// may be null, falling back to the message fingerprint per trial.
/// Passing trials must not be included by the caller.
[[nodiscard]] std::vector<TriagedClass> triage_failures(
    const std::vector<std::tuple<int, const TrialResult*,
                                 const fault::FaultPlan*>>& failures);

}  // namespace phantom::chaos
