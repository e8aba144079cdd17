// Constant-delay FIFO hop with one kernel event per busy line.
#pragma once

#include "sim/ring.h"
#include "sim/simulator.h"

namespace phantom::sim {

/// The items in transit over one constant-delay hop (an atm::Link or a
/// tcp::PacketLink). With a constant delay, items arrive in the order
/// they were sent, so only the head of the line needs a kernel event:
/// each item's (time, seq) key is reserved when it is sent
/// (Simulator::reserve), and only the head's key is filed. The head's
/// arrival event files the next item's key before handing its item on
/// (the vacant-root fast path of EventQueue). Every item therefore
/// fires under exactly the key a per-item event would have had, so
/// event order, event count and every output stay the same, while the
/// heap holds one node per busy line instead of one per item in
/// transit.
///
/// The line relies on the kernel running every event it pops: a head
/// popped and then dropped would never file its successor, and the line
/// would stall for good. Every Simulator run variant keeps that rule
/// (run_guarded checks its budgets before popping).
///
/// `Owner` receives each item through `Owner::arrive(const T&)`. The
/// head event's closure is a raw pointer to this line, which lives
/// inside its owner: like the sink pointer an owner keeps, the owner
/// must outlive every run of the simulator that could deliver to it.
/// The line is pinned in memory, hence neither copyable nor movable.
template <typename T, typename Owner>
class DelayLine {
 public:
  DelayLine(Simulator& sim, Time delay, Owner& owner)
      : sim_{&sim}, delay_{delay}, owner_{&owner} {}

  DelayLine(const DelayLine&) = delete;
  DelayLine& operator=(const DelayLine&) = delete;

  /// Puts `item` on the line; it arrives `delay()` from now.
  void send(const T& item) {
    items_.push_back(Transit{sim_->reserve(delay_), item});
    if (items_.size() == 1) file_head();
  }

  [[nodiscard]] Time delay() const { return delay_; }
  /// Items sent and not yet arrived.
  [[nodiscard]] std::size_t size() const { return items_.size(); }

 private:
  struct Transit {
    Reservation key;
    T item;
  };

  void file_head() {
    sim_->schedule(items_.front().key, bind_member<&DelayLine::arrive>(this));
  }

  void arrive() {
    const T item = items_.front().item;
    items_.pop_front();
    if (!items_.empty()) file_head();
    owner_->arrive(item);
  }

  Simulator* sim_;
  Time delay_;
  Owner* owner_;
  Ring<Transit> items_;
};

}  // namespace phantom::sim
