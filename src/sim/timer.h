// A one-shot timer that keeps at most one kernel event, however often
// it is re-armed.
#pragma once

#include <cstdint>

#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace phantom::sim {

/// A re-armable one-shot deadline for timers that are pushed back far
/// more often than they expire: TCP's retransmission timer, which
/// nearly every ACK restarts, and a receiver's delayed-ACK timer.
///
/// arm() draws the deadline's (time, seq) key with Simulator::reserve,
/// the key an eager cancel + schedule would file, and files it only
/// when no event of the timer is filed at or before it. Otherwise the
/// filed event stays: it wakes the timer at the old deadline, and the
/// timer then files the key it holds, which draws no new seq. A
/// deadline earlier than the filed event (a shorter delay than before)
/// is the one case that cancels. So the owner's callback runs at
/// exactly the key an eager timer would have filed, every other event
/// keeps its key, and the only trace of the laziness is one extra
/// executed event per early wake-up (wakeups()).
///
/// The filed event's closure is a raw pointer to this timer: like a
/// sim::DelayLine, the timer must outlive every run of the simulator
/// that could fire it, and it is neither copyable nor movable.
class Timer {
 public:
  /// The owner's callback: a bind_member closure or a lambda capturing
  /// a pointer or two, bound once.
  using Callback = InlineFunction<2 * sizeof(void*)>;

  Timer(Simulator& sim, Callback on_fire);

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Sets the deadline `delay` from now (a throw for a negative delay,
  /// as Simulator::reserve), replacing the armed one if any. The
  /// callback runs once when the deadline is reached, unless the timer
  /// is re-armed or disarmed first.
  void arm(Time delay) {
    deadline_ = sim_->reserve(delay);
    armed_ = true;
    if (filed_.valid()) {
      if (filed_key_.at <= deadline_.at) return;  // wakes early, files then
      sim_->cancel(filed_);  // the deadline moved earlier
    }
    file(deadline_);
  }

  /// Drops the deadline. The filed event, if any, stays and wakes the
  /// timer for nothing.
  void disarm() { armed_ = false; }

  /// Armed and not yet fired; false again while the callback runs.
  [[nodiscard]] bool armed() const { return armed_; }

  /// Filed events that ran without calling the owner: the events an
  /// eager timer would not have run.
  [[nodiscard]] std::uint64_t wakeups() const { return wakeups_; }

 private:
  void file(Reservation key);
  void wake();

  Simulator* sim_;
  Callback on_fire_;
  Reservation deadline_{};  // the armed deadline's key
  bool armed_ = false;
  // The one filed event, at or before the deadline while armed.
  EventId filed_{};
  Reservation filed_key_{};
  std::uint64_t wakeups_ = 0;
};

}  // namespace phantom::sim
