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

  /// Schedules `f` (any void() callable; see EventQueue::schedule) to
  /// run `delay` from now. Negative delays throw std::logic_error in
  /// every build type (a release build must not silently corrupt the
  /// event order).
  template <typename F>
  EventId schedule(Time delay, F&& f) {
    if (delay.is_negative()) throw_negative("schedule", delay);
    return queue_.schedule(now_ + delay, std::forward<F>(f));
  }

  /// Schedules `f` at absolute simulation time `at`. Throws
  /// std::logic_error if `at` < now().
  template <typename F>
  EventId schedule_at(Time at, F&& f) {
    if (at < now_) throw_past("schedule_at", at);
    return queue_.schedule(at, std::forward<F>(f));
  }

  /// Draws the ordering key of an event `delay` from now without
  /// filing it (EventQueue::reserve); schedule(key, f) files it later.
  /// Negative delays throw std::logic_error.
  Reservation reserve(Time delay) {
    if (delay.is_negative()) throw_negative("reserve", delay);
    return queue_.reserve(now_ + delay);
  }

  /// Files `f` under a key from reserve(). Throws std::logic_error if
  /// the clock has already passed the key.
  template <typename F>
  EventId schedule(Reservation key, F&& f) {
    // The queue checks the key against the last run event only;
    // run_until() can move the clock past keys the queue would take.
    if (key.at < now_) throw_past("schedule", key.at);
    return queue_.schedule(key, std::forward<F>(f));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Whether the event a reserved key stands for would have run by now,
  /// had it been filed. A sim::DelayLine asks this of the items it
  /// hands over without an event (its quiet items).
  ///  * Inside a callback: `key` orders before the running event's key.
  ///  * Outside a run: `key.at` <= now() and `key` orders before every
  ///    pending event. After run_until() every key up to the deadline
  ///    has run. After a run that stopped in the middle of an instant
  ///    (stop(), a run_guarded budget), the keys at that instant that
  ///    order after the next pending event have not.
  /// A run() returns once no event is pending, so a key later than the
  /// last event has not run when it drains, and no read sees its item
  /// until a later run moves the clock past it.
  [[nodiscard]] bool has_run(Reservation key) const {
    if (running_) return queue_.before_last_run(key);
    return key.at <= now_ && queue_.before_next(key);
  }

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
  /// are checked before an event is taken off the queue, so the event
  /// that trips one stays pending; every event taken off runs.
  RunOutcome run_guarded(const RunGuard& guard);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Events executed over this simulator's lifetime (all run variants).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  [[nodiscard]] bool pending() const { return !queue_.empty(); }
  [[nodiscard]] std::size_t pending_count() const { return queue_.size(); }
  /// Heap nodes the kernel holds: the pending events plus tombstones of
  /// cancelled ones not yet discarded (EventQueue::heap_nodes).
  [[nodiscard]] std::size_t heap_nodes() const { return queue_.heap_nodes(); }
  /// High-water mark of pending events over this simulator's lifetime
  /// (the kernel's memory footprint; see phantom_cli --perf-report).
  [[nodiscard]] std::size_t peak_pending_count() const {
    return queue_.peak_size();
  }

  /// Kernel-owned random stream; models share it so one seed reproduces
  /// an entire run.
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  [[noreturn]] static void throw_negative(const char* op, Time delay);
  [[noreturn]] void throw_past(const char* op, Time at) const;

  /// Sets running_ for one run call (once per call, not per event),
  /// also when a callback throws.
  struct Running {
    explicit Running(Simulator& sim) : flag{&sim.running_} { *flag = true; }
    ~Running() { *flag = false; }
    bool* flag;
  };

  EventQueue queue_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  bool running_ = false;  // inside run(), run_until() or run_guarded()
  std::uint64_t executed_ = 0;
  Rng rng_;
};

}  // namespace phantom::sim
