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
#include <utility>
#include <vector>

#include "exp/scenario.h"
#include "fault/fault_plan.h"
#include "sim/simulator.h"

namespace phantom::chaos {

struct TrialOptions {
  /// Deterministic run budgets, sized for the stock scenarios (a 600 ms
  /// bottleneck run executes ~1M events). run_trial and run_baseline
  /// set the deadline to the scenario's horizon. The isolation layer
  /// sets the progress hook to stream event counts out of the child.
  sim::RunGuard watchdog{.max_events = 50'000'000,
                         .max_events_per_instant = 100'000,
                         .on_progress = {}};
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
/// Inverse of to_string; std::nullopt for an unknown name.
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

/// A result's one text form: a single-line JSON object holding the trial
/// index, the plan's spec and every TrialResult field, doubles in %.17g
/// so they read back bit for bit. It is a row of the supervisor's JSONL
/// checkpoint and the body of an isolated child's 'R' frame.
[[nodiscard]] std::string checkpoint_row(int trial,
                                         const std::string& plan_spec,
                                         const TrialResult& r);
/// Inverse of checkpoint_row: the trial index and result, or
/// std::nullopt for a torn or malformed row. `plan_spec`, if given,
/// receives the row's plan spec.
[[nodiscard]] std::optional<std::pair<int, TrialResult>> parse_checkpoint_row(
    const std::string& line, std::string* plan_spec = nullptr);

/// Fault-free reference run for the differential oracle.
struct Baseline {
  double settled_share_bps = 0.0;
  std::uint64_t delivered_cells = 0;
};

/// Runs `spec` with no faults under the same watchdog. Throws
/// std::runtime_error if even the clean run trips the watchdog (the
/// scenario itself is broken — no trial verdict would mean anything).
[[nodiscard]] Baseline run_baseline(const exp::Scenario& spec,
                                    std::uint64_t seed,
                                    const TrialOptions& opt = {});

/// Runs one trial and judges it. Oracles are checked in severity order:
/// watchdog, invariants, reconvergence, differential; the verdict is
/// the first that fails. The differential oracle is skipped when
/// `baseline` is null; the reconvergence oracle is skipped when the
/// plan is empty, when no pre-fault operating point is measurable, or
/// when the horizon leaves no room to observe the deadline.
[[nodiscard]] TrialResult run_trial(const exp::Scenario& spec,
                                    std::uint64_t seed,
                                    const fault::FaultPlan& plan,
                                    const TrialOptions& opt = {},
                                    const Baseline* baseline = nullptr);

}  // namespace phantom::chaos
