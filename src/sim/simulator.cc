#include "sim/simulator.h"

#include <cassert>
#include <stdexcept>

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

EventId Simulator::schedule(Time delay, EventQueue::Callback cb) {
  if (delay.is_negative()) {
    throw std::logic_error{"Simulator::schedule: negative delay " +
                           delay.to_string()};
  }
  return queue_.schedule(now_ + delay, std::move(cb));
}

EventId Simulator::schedule_at(Time at, EventQueue::Callback cb) {
  if (at < now_) {
    throw std::logic_error{"Simulator::schedule_at: " + at.to_string() +
                           " is in the past (now " + now_.to_string() + ")"};
  }
  return queue_.schedule(at, std::move(cb));
}

Reservation Simulator::reserve(Time delay) {
  if (delay.is_negative()) {
    throw std::logic_error{"Simulator::reserve: negative delay " +
                           delay.to_string()};
  }
  return queue_.reserve(now_ + delay);
}

void Simulator::throw_passed(Reservation key) const {
  throw std::logic_error{"Simulator::schedule: reserved time " +
                         key.at.to_string() + " is in the past (now " +
                         now_.to_string() + ")"};
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!queue_.empty() && !stopped_) {
    auto [time, callback] = queue_.pop();
    assert(time >= now_);
    now_ = time;
    callback();
    ++executed;
  }
  executed_ += executed;
  return executed;
}

std::uint64_t Simulator::run_until(Time deadline) {
  if (deadline < now_) {
    throw std::logic_error{"Simulator::run_until: deadline " +
                           deadline.to_string() + " is in the past (now " +
                           now_.to_string() + ")"};
  }
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!queue_.empty() && !stopped_ && queue_.next_time() <= deadline) {
    auto [time, callback] = queue_.pop();
    assert(time >= now_);
    now_ = time;
    callback();
    ++executed;
  }
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
    // Every budget is checked before pop(): a popped event always runs.
    // (A sim::DelayLine files its next item from inside the head's
    // callback, so a popped-then-dropped head would wedge its line.)
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
    auto [time, callback] = queue_.pop();
    assert(time == next && time >= now_);
    now_ = time;
    callback();
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
