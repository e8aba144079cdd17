// Executes one chaos trial: scenario + fault schedule under a watchdog,
// judged by an oracle set.
//
// A trial is a pure function of (spec, seed, plan): the simulator's
// budgets are event counts and sim time — never wall clock — so a
// verdict reproduces exactly, and a hung or exploding simulation
// becomes a structured kWatchdog failure instead of a wedged process.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "fault/fault_plan.h"

namespace phantom::chaos {

/// Deterministic run budgets. Defaults are sized for the stock
/// scenarios (a 600 ms bottleneck run executes ~1M events).
struct WatchdogLimits {
  std::uint64_t max_events = 50'000'000;
  std::uint64_t max_events_per_instant = 100'000;
  /// Forwarded to sim::RunGuard: crash-safe progress streaming for the
  /// isolation layer (0 = off). The hook observes only.
  std::uint64_t progress_every = 0;
  std::function<void(std::uint64_t)> on_progress;
};

struct OracleOptions {
  /// Reconvergence: the fair-share trace must re-enter its pre-fault
  /// band (target * (1 ± rel_tol)) and stay there.
  double rel_tol = 0.15;
  /// ...within this long after the last fault stops perturbing.
  sim::Time recovery_deadline = sim::Time::ms(250);
  sim::Time hold = sim::Time::ms(5);
  /// Differential: the settled share must be within this relative
  /// distance of the fault-free run's, and total goodput must not
  /// exceed the fault-free run's by more than delivered_slack (the
  /// goodput bound is waived for plans with misbehave events — a
  /// greedy source legitimately out-delivers a compliant baseline).
  double differential_tol = 0.15;
  double delivered_slack = 0.05;
  sim::Time monitor_period = sim::Time::ms(1);
};

struct TrialOptions {
  WatchdogLimits watchdog;
  OracleOptions oracle;
  /// Test/experiment hook, run after the topology is built and the
  /// fault plan applied, before start_all() — e.g. to schedule extra
  /// load, or an artificial livelock in the watchdog's own tests.
  std::function<void(sim::Simulator&, topo::AbrNetwork&)> prepare;
};

enum class Verdict {
  kPass,
  kWatchdog,      ///< event budget exhausted or livelock detected
  kInvariant,     ///< InvariantMonitor recorded a violation
  kNoReconverge,  ///< fair share never returned to the pre-fault band in time
  kDifferential,  ///< end state disagrees with the fault-free run
  kCrash,         ///< the simulation threw a C++ exception
  kProcessCrash,  ///< the trial process died (signal, abort, rlimit, timeout)
};

[[nodiscard]] const char* to_string(Verdict v);
/// Inverse of to_string; std::nullopt for an unknown name (used by the
/// supervisor's checkpoint loader).
[[nodiscard]] std::optional<Verdict> verdict_from_string(
    const std::string& name);

struct TrialResult {
  Verdict verdict = Verdict::kPass;
  std::string detail;  ///< first failing oracle's specifics, empty on pass
  std::uint64_t events = 0;
  std::size_t violations = 0;
  std::optional<sim::Time> reconverge_latency;  ///< from the first fault
  double settled_share_mbps = 0.0;  ///< mean share over the last 50 ms
  double peak_queue_cells = 0.0;

  // kProcessCrash specifics, filled by the isolation layer (chaos/isolate)
  // — an in-process run can never produce them.
  std::string crash_signal;  ///< "SIGSEGV", ...; empty if the child exited
  int exit_code = 0;         ///< child's exit code when it exited on its own
  std::string stderr_tail;   ///< last bytes of the child's stderr (ASan etc.)

  /// Flight recorder: the last structured events (JSONL lines, oldest
  /// first) the trial's obs::EventLog held when the verdict was
  /// reached. Empty on pass.
  std::vector<std::string> flight_recorder;

  [[nodiscard]] bool failed() const { return verdict != Verdict::kPass; }
};

/// Fault-free reference run for the differential oracle.
struct Baseline {
  double settled_share_bps = 0.0;
  std::uint64_t delivered_cells = 0;
};

/// Runs `spec` with no faults under the same watchdog. Throws
/// std::runtime_error if even the clean run trips the watchdog (the
/// scenario itself is broken — no trial verdict would mean anything).
[[nodiscard]] Baseline run_baseline(const ScenarioSpec& spec,
                                    std::uint64_t seed,
                                    const TrialOptions& opt = {});

/// Runs one trial and judges it. Oracles are checked in severity order:
/// watchdog, invariants, reconvergence, differential; the verdict is
/// the first that fails. The differential oracle is skipped when
/// `baseline` is null; the reconvergence oracle is skipped when the
/// plan is empty, when no pre-fault operating point is measurable, or
/// when the horizon leaves no room to observe the deadline.
[[nodiscard]] TrialResult run_trial(const ScenarioSpec& spec,
                                    std::uint64_t seed,
                                    const fault::FaultPlan& plan,
                                    const TrialOptions& opt = {},
                                    const Baseline* baseline = nullptr);

}  // namespace phantom::chaos
