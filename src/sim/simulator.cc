#include "sim/simulator.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace phantom::sim {

const char* to_string(RunOutcome o) {
  switch (o) {
    case RunOutcome::kDrained:     return "drained";
    case RunOutcome::kDeadline:    return "deadline";
    case RunOutcome::kStopped:     return "stopped";
    case RunOutcome::kEventBudget: return "event-budget";
    case RunOutcome::kLivelock:    return "livelock";
  }
  return "?";
}

void Simulator::throw_negative(const char* op, Time delay) {
  throw std::logic_error{std::string{"Simulator::"} + op + ": negative delay " +
                         delay.to_string()};
}

void Simulator::throw_past(const char* op, Time at) const {
  throw std::logic_error{std::string{"Simulator::"} + op + ": " +
                         at.to_string() + " is in the past (now " +
                         now_.to_string() + ")"};
}

std::uint64_t Simulator::run() {
  const Running running{*this};
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_ && queue_.run_next(Time::max(), now_)) ++executed;
  executed_ += executed;
  return executed;
}

std::uint64_t Simulator::run_until(Time deadline) {
  if (deadline < now_) {
    throw std::logic_error{"Simulator::run_until: deadline " +
                           deadline.to_string() + " is in the past (now " +
                           now_.to_string() + ")"};
  }
  const Running running{*this};
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_ && queue_.run_next(deadline, now_)) ++executed;
  if (!stopped_ && now_ < deadline) now_ = deadline;
  executed_ += executed;
  return executed;
}

RunOutcome Simulator::run_guarded(const RunGuard& guard) {
  if (guard.deadline < now_) {
    throw std::logic_error{"Simulator::run_guarded: deadline " +
                           guard.deadline.to_string() + " is in the past (now " +
                           now_.to_string() + ")"};
  }
  const Running running{*this};
  stopped_ = false;
  std::uint64_t executed = 0;
  std::uint64_t at_instant = 0;
  Time instant = now_;
  RunOutcome outcome = RunOutcome::kDrained;
  while (true) {
    if (queue_.empty()) {
      outcome = RunOutcome::kDrained;
      break;
    }
    const Time next = queue_.next_time();
    if (next > guard.deadline) {
      outcome = RunOutcome::kDeadline;
      break;
    }
    if (executed >= guard.max_events) {
      outcome = RunOutcome::kEventBudget;
      break;
    }
    // Every budget is checked before run_front(): an event taken off
    // the queue always runs. (A sim::DelayLine files its next item from
    // inside the head's callback, so a dropped head would wedge its
    // line.)
    if (next == instant) {
      if (++at_instant > guard.max_events_per_instant) {
        outcome = RunOutcome::kLivelock;
        now_ = next;
        break;
      }
    } else {
      instant = next;
      at_instant = 1;
    }
    queue_.run_front(now_);
    assert(now_ == next);
    ++executed;
    if (guard.progress_every != 0 && guard.on_progress &&
        executed % guard.progress_every == 0) {
      guard.on_progress(executed_ + executed);
    }
    if (stopped_) {
      outcome = RunOutcome::kStopped;
      break;
    }
  }
  executed_ += executed;
  // Mirror run_until: a healthy run ends with the clock at the deadline.
  if ((outcome == RunOutcome::kDrained || outcome == RunOutcome::kDeadline) &&
      guard.deadline != Time::max() && now_ < guard.deadline) {
    now_ = guard.deadline;
  }
  return outcome;
}

}  // namespace phantom::sim
