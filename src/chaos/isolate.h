// Process isolation for chaos trials.
//
// A genuine crash — SIGSEGV, assert, sanitizer abort, OOM, livelock
// that defeats the in-process watchdog — must not take down the whole
// search: it is exactly the class of bug the harness exists to find.
// run_trial_isolated() forks, applies rlimits (CPU seconds, address
// space) and a wall-clock kill deadline in the child, runs the ordinary
// in-process trial there, and streams the result back over a pipe:
//
//   parent ──fork──► child: rlimits → run_trial() → result frame → _exit(0)
//     │                │
//     │   result pipe  │  'P' progress frames (events so far), then one
//     │◄───────────────┤  'R' frame carrying the bit-exact TrialResult
//     │   stderr pipe  │
//     │◄───────────────┤  assert/ASan/UBSan output, tail kept
//
// A child that dies instead of delivering a result becomes a structured
// Verdict::kProcessCrash (signal name, exit code, stderr tail, events
// executed so far) and the search carries on. Result frames carry
// doubles by bit pattern, so for a healthy trial the decoded result is
// byte-identical to what an in-process run would have produced — the
// report does not depend on whether isolation was on.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

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
  /// How much of the end of the child's stderr to keep for the report.
  std::size_t stderr_tail_bytes = 4096;
};

/// How a child ended, from the parent's side of waitpid().
struct ChildExit {
  enum class Kind {
    kExited,    ///< _exit(code)
    kSignaled,  ///< killed by `code` (a signal number)
    kTimedOut,  ///< parent SIGKILLed it at the wall-clock deadline
  };
  Kind kind = Kind::kExited;
  int code = 0;  ///< exit code (kExited) or signal number (otherwise)
};

/// "SIGSEGV" for 11, ...; "SIG<n>" for signals without a common name.
[[nodiscard]] std::string signal_name(int sig);

/// Decodes a raw waitpid() status. `timed_out` marks a child the parent
/// killed at the deadline (the raw status is then a plain SIGKILL).
[[nodiscard]] ChildExit classify_wait_status(int wait_status, bool timed_out);

/// The structured kProcessCrash result for a child that died without
/// delivering a result frame. `timeout_ms` only shapes the kTimedOut
/// message.
[[nodiscard]] TrialResult process_crash_result(const ChildExit& how,
                                               const std::string& stderr_tail,
                                               std::uint64_t events_so_far,
                                               std::int64_t timeout_ms);

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
  /// on fork/pipe failure — an infrastructure problem the supervisor
  /// retries, never a trial verdict.
  [[nodiscard]] static std::unique_ptr<IsolatedTrial> spawn(
      const Body& body, const IsolateOptions& opt, std::string& infra_error);

  ~IsolatedTrial();
  IsolatedTrial(const IsolatedTrial&) = delete;
  IsolatedTrial& operator=(const IsolatedTrial&) = delete;

  /// Pipe fds the caller may poll(); -1 once they reached EOF.
  [[nodiscard]] int result_fd() const { return result_fd_; }
  [[nodiscard]] int stderr_fd() const { return stderr_fd_; }

  /// Absolute CLOCK_MONOTONIC kill deadline in ms, if a timeout is set.
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
  std::size_t stderr_tail_bytes_ = 4096;
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

/// Blocking convenience: one trial in one child, start to finish.
[[nodiscard]] TrialResult run_trial_isolated(const exp::Scenario& spec,
                                             std::uint64_t seed,
                                             const fault::FaultPlan& plan,
                                             const TrialOptions& opt,
                                             const Baseline* baseline,
                                             const IsolateOptions& iso);

/// CLOCK_MONOTONIC now, in milliseconds (the clock deadlines use).
[[nodiscard]] std::int64_t monotonic_ms();

/// False in ASan/TSan builds, where RLIMIT_AS cannot be enforced (the
/// sanitizer runtimes reserve terabytes of shadow address space) and
/// IsolateOptions::memory_limit_mb is therefore ignored.
[[nodiscard]] bool address_space_limit_supported();

}  // namespace phantom::chaos
