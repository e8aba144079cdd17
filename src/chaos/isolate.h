// Process isolation for chaos trials.
//
// A genuine crash — SIGSEGV, assert, sanitizer abort, OOM, livelock
// that defeats the in-process watchdog — must not take down the whole
// search: it is exactly the class of bug the harness exists to find.
// run_trial_isolated() forks, applies any rlimits IsolateOptions sets
// (CPU seconds, address space) in the child, enforces a wall-clock kill
// deadline from the parent, runs the ordinary in-process trial in the
// child, and streams the result back over a pipe:
//
//   parent ──fork──► child: rlimits → run_trial() → result frame → _exit(0)
//     │                │
//     │   result pipe  │  'P' progress frames (events so far), then one
//     │◄───────────────┤  'R' frame carrying the result's checkpoint row
//     │   stderr pipe  │
//     │◄───────────────┤  assert/ASan/UBSan output, tail kept
//
// A child that dies instead of delivering a result becomes a structured
// Verdict::kProcessCrash (signal name, exit code, stderr tail, events
// executed so far) and the search carries on. The 'R' frame holds the
// same row the checkpoint stores (checkpoint_row, doubles in %.17g), so
// for a healthy trial the decoded result is bit-identical to what an
// in-process run would have produced — the report does not depend on
// whether isolation was on.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/runner.h"

namespace phantom::chaos {

struct IsolateOptions {
  /// Wall-clock kill deadline per trial; the parent SIGKILLs a child
  /// that outlives it. <= 0 disables (the in-process watchdog still
  /// bounds healthy runs by event count and sim time).
  std::int64_t timeout_ms = 30'000;
  /// RLIMIT_CPU in seconds (kernel sends SIGXCPU, then SIGKILL one
  /// second later). 0 disables.
  int cpu_limit_sec = 0;
  /// RLIMIT_AS in MiB, turning a runaway allocation into a bad_alloc /
  /// abort inside the child. 0 disables. Ignored in sanitizer builds:
  /// ASan/TSan reserve terabytes of shadow address space.
  std::int64_t memory_limit_mb = 0;
};

/// "SIGSEGV" for 11, ...; "SIG<n>" for signals without a common name.
[[nodiscard]] std::string signal_name(int sig);

/// One in-flight isolated trial: the forked child, its two pipes, and
/// the wall-clock deadline. The supervisor multiplexes many of these;
/// run_trial_isolated() drives exactly one. Not copyable; the
/// destructor SIGKILLs and reaps a child that is still running.
class IsolatedTrial {
 public:
  /// Runs in the child between rlimit setup and _exit(0); writes frames
  /// to `result_fd`. Tests substitute hostile bodies (big allocations,
  /// spin loops, raise()) to exercise the parent-side decoding.
  using Body = std::function<void(int result_fd)>;

  /// Forks and starts `body`. Returns nullptr and fills `infra_error`
  /// on fork/pipe failure — an infrastructure problem spawn_with_retry
  /// retries, never a trial verdict.
  [[nodiscard]] static std::unique_ptr<IsolatedTrial> spawn(
      const Body& body, const IsolateOptions& opt, std::string& infra_error);

  ~IsolatedTrial();
  IsolatedTrial(const IsolatedTrial&) = delete;
  IsolatedTrial& operator=(const IsolatedTrial&) = delete;

  /// Pipe fds the caller may poll(); -1 once they reached EOF.
  [[nodiscard]] int result_fd() const { return result_fd_; }
  [[nodiscard]] int stderr_fd() const { return stderr_fd_; }

  /// Absolute CLOCK_MONOTONIC kill deadline in ms, if a timeout is set
  /// and the child has not been killed yet.
  [[nodiscard]] std::optional<std::int64_t> deadline_ms() const {
    return deadline_ms_;
  }

  /// Drains whatever the pipes hold without blocking and reaps the
  /// child once both pipes hit EOF. Returns finished().
  bool pump();

  /// SIGKILLs the child (deadline exceeded, or its result is no longer
  /// needed). The trial still finishes through pump().
  void kill_child(bool timed_out);

  [[nodiscard]] bool finished() const { return reaped_; }

  /// The trial's outcome; only valid once finished(). A complete result
  /// frame is returned bit-exact; anything else is a kProcessCrash.
  [[nodiscard]] TrialResult result() const;

 private:
  IsolatedTrial() = default;

  pid_t pid_ = -1;
  int result_fd_ = -1;
  int stderr_fd_ = -1;
  std::optional<std::int64_t> deadline_ms_;
  std::int64_t timeout_ms_ = 0;
  bool killed_on_timeout_ = false;
  bool reaped_ = false;
  int wait_status_ = 0;
  std::string result_buf_;
  std::string stderr_tail_;
};

/// The Body that runs one chaos trial and reports it: periodic 'P'
/// progress frames via the simulator's crash-safe progress hook, then
/// the final 'R' result frame. Captures copies, so a supervisor can
/// outlive the call site's arguments.
[[nodiscard]] IsolatedTrial::Body trial_body(exp::Scenario spec,
                                             std::uint64_t seed,
                                             fault::FaultPlan plan,
                                             TrialOptions opt,
                                             std::optional<Baseline> baseline);

/// IsolatedTrial::spawn, retried with a doubling backoff on fork/pipe
/// failure. Throws std::runtime_error when every attempt fails: that is
/// harness trouble, not a verdict.
[[nodiscard]] std::unique_ptr<IsolatedTrial> spawn_with_retry(
    const IsolatedTrial::Body& body, const IsolateOptions& opt);

/// Blocks until one of `trials` (none finished) has pipe output, the
/// nearest kill deadline passes, or a signal interrupts; then SIGKILLs
/// every child past its deadline. Callers pump() each trial after it.
void wait_any(const std::vector<IsolatedTrial*>& trials);

/// Blocking convenience: one trial in one child, start to finish.
[[nodiscard]] TrialResult run_trial_isolated(const exp::Scenario& spec,
                                             std::uint64_t seed,
                                             const fault::FaultPlan& plan,
                                             const TrialOptions& opt,
                                             const Baseline* baseline,
                                             const IsolateOptions& iso);

/// False in ASan/TSan builds, where RLIMIT_AS cannot be enforced (the
/// sanitizer runtimes reserve terabytes of shadow address space) and
/// IsolateOptions::memory_limit_mb is therefore ignored.
[[nodiscard]] bool address_space_limit_supported();

}  // namespace phantom::chaos
