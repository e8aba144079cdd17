// The discrete-event simulator driving every model in this library.
//
// The paper's simulations were run in BONeS Designer [ALT94], a commercial
// event-driven simulator that is no longer obtainable; this kernel is the
// functional substitute (see DESIGN.md, "Substitutions"). All protocol
// behaviour lives in the models — the kernel only provides an exact,
// deterministic clock and scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"

namespace phantom::sim {

/// Why a guarded run returned (see Simulator::run_guarded).
enum class RunOutcome {
  kDrained,      ///< event queue empty — the model went quiet
  kDeadline,     ///< reached the sim-time deadline with events pending
  kStopped,      ///< stop() was called from a callback
  kEventBudget,  ///< executed max_events without reaching the deadline
  kLivelock,     ///< max_events_per_instant fired without time advancing
};

[[nodiscard]] const char* to_string(RunOutcome o);

/// Budgets for a guarded run. The defaults never trip; a watchdog sets
/// the budgets it cares about. All limits are deterministic (event
/// counts and sim time, never wall clock), so a guarded run is exactly
/// reproducible from the seed.
struct RunGuard {
  Time deadline = Time::max();
  /// Total events this call may execute before giving up.
  std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max();
  /// Events executed at one instant without the clock advancing before
  /// the run is declared livelocked (a model rescheduling itself at
  /// `now()` forever would otherwise wedge the process).
  std::uint64_t max_events_per_instant =
      std::numeric_limits<std::uint64_t>::max();
  /// Crash-safe progress hook: `on_progress(lifetime events_executed)`
  /// fires after every `progress_every` events of this run (0 = never).
  /// The chaos isolation layer streams these counts out of the trial
  /// process, so a later SIGSEGV still reports how far the run got. The
  /// hook must not schedule, cancel or stop — it observes only.
  std::uint64_t progress_every = 0;
  std::function<void(std::uint64_t)> on_progress;
};

/// Single-threaded discrete-event simulator.
///
/// Usage:
///     Simulator sim;
///     sim.schedule(Time::ms(1), [&]{ ... });
///     sim.run_until(Time::sec(10));
///
/// Invariants: `now()` is non-decreasing; events at equal timestamps run
/// in scheduling order; a callback may schedule further events, including
/// at the current instant.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `cb` to run `delay` from now. Negative delays throw
  /// std::logic_error in every build type (a release build must not
  /// silently corrupt the event order).
  EventId schedule(Time delay, EventQueue::Callback cb);

  /// Schedules `cb` at absolute simulation time `at`. Throws
  /// std::logic_error if `at` < now().
  EventId schedule_at(Time at, EventQueue::Callback cb);

  /// Draws the ordering key of an event `delay` from now without
  /// filing it (EventQueue::reserve); schedule(key, cb) files it later.
  /// Negative delays throw std::logic_error.
  Reservation reserve(Time delay);

  /// Files `cb` under a key from reserve(). Throws std::logic_error if
  /// the clock has already passed the key.
  EventId schedule(Reservation key, EventQueue::Callback cb) {
    // The queue checks the key against the last popped event only;
    // run_until() can move the clock past keys the queue would take.
    if (key.at < now_) throw_passed(key);
    return queue_.schedule(key, std::move(cb));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs events until the queue drains or `stop()` is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Runs events with timestamp <= `deadline`, then sets now() to
  /// `deadline` (if it is later than the last event). Returns the number
  /// of events executed.
  std::uint64_t run_until(Time deadline);

  /// Runs events under the guard's budgets: executes events with
  /// timestamp <= guard.deadline until the queue drains, the deadline is
  /// reached (now() is then advanced to it), stop() is called, or a
  /// budget trips. The watchdog entry point: a hung or exploding model
  /// becomes a structured outcome instead of a wedged process. Budgets
  /// are checked before an event is popped, so the event that trips
  /// one stays pending; every popped event runs.
  RunOutcome run_guarded(const RunGuard& guard);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Events executed over this simulator's lifetime (all run variants).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  [[nodiscard]] bool pending() const { return !queue_.empty(); }
  [[nodiscard]] std::size_t pending_count() const { return queue_.size(); }
  /// High-water mark of pending events over this simulator's lifetime
  /// (the kernel's memory footprint; see phantom_cli --perf-report).
  [[nodiscard]] std::size_t peak_pending_count() const {
    return queue_.peak_size();
  }

  /// Kernel-owned random stream; models share it so one seed reproduces
  /// an entire run.
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  [[noreturn]] void throw_passed(Reservation key) const;

  EventQueue queue_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  Rng rng_;
};

}  // namespace phantom::sim
