// Constant-delay FIFO hop, optionally fed by a serializer, with one
// kernel event per busy line.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "sim/ring.h"
#include "sim/simulator.h"

namespace phantom::sim {

/// The items on one constant-delay hop (an atm::Link or a
/// tcp::PacketLink), in departure order. An item departs, then arrives
/// delay() later.
///
/// On a plain line an item departs when it is sent. A line can also be
/// the output of a serializer: an item then departs its service time
/// after the later of its send time and the previous item's departure,
/// so the line holds the serializer's queue too — the items still
/// waiting() to depart — and no event marks a departure. The service
/// time is fixed (set_service; an atm::OutputPort, one cell time) or
/// given with each item (send(item, service); a tcp::PacketPort, one
/// packet time). A departure equal to now() has happened; a serializer
/// that wants the opposite tie asks waiting_or_departing(). With a fixed
/// service time s the waiting items depart back to back, s apart,
/// ending at last_departure(), so waiting() is arithmetic. With a
/// per-item service time the line counts them with a cursor: departures
/// only grow, so the waiting items are the back of the line, and each
/// item passes the cursor once.
///
/// With a constant delay, items arrive in departure order, so only the
/// head of the line needs a kernel event: each item's (time, seq)
/// arrival key is reserved when it is sent (Simulator::reserve), and
/// only the head's key is filed. The head's arrival event files the
/// next item's key before handing its item on (the vacant-root fast
/// path of EventQueue). An item costs one kernel event per hop, and a
/// serialized hop no more than a plain one.
///
/// `Owner` judges and receives the items:
///  * `bool Owner::depart(T&)` runs once per item, in departure order,
///    and may change the item or drop it (false). On a plain line it
///    runs at send, before the key is drawn, so a dropped item never
///    enters the line. On a serialized line it runs lazily: at the
///    latest when the item arrives, and for every item departed so far
///    whenever settle() is called. An owner that changes what depart()
///    decides calls settle() first.
///  * `void Owner::arrive(const T&)` receives each item depart() kept.
///
/// The line relies on the kernel running every event it takes off the
/// queue: a head taken off and then dropped would never file its
/// successor, and the line would stall for good. Every Simulator run
/// variant keeps that rule: each goes through EventQueue::run_next,
/// and run_guarded checks its budgets before calling it.
///
/// The head event's closure is a raw pointer to this line, which lives
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

  /// Makes the line the output of a serializer that takes `service`
  /// per item. Set once, before the first item is sent.
  void set_service(Time service) {
    assert(sent_ == 0 && service_.is_zero() && !service.is_negative());
    service_ = service;
  }

  /// Puts `item` on the line behind every item already on it. Returns
  /// its departure time.
  Time send(T item) { return send(item, service_); }

  /// send() for a serializer whose service time varies per item: `item`
  /// departs `service` after the later of now and the previous
  /// departure. Every item of such a line goes through here, each with
  /// a positive service time, and the line has no fixed service().
  Time send(T item, Time service) {
    const Time now = sim_->now();
    const Time depart = std::max(now, last_departure_) + service;
    last_departure_ = depart;
    ++sent_;
    if (depart == now) {
      if (!owner_->depart(item)) return depart;
    } else {
      ++unsettled_;
      ++waiting_;
    }
    push(item, depart);
    return depart;
  }

  /// Puts `item` on the line ahead of the waiting items that depart
  /// after `after`, which must be a waiting item's departure or
  /// last_departure(). The item takes the first overtaken item's
  /// departure; each overtaken item departs one service time later and
  /// draws a fresh arrival key. None of them has a filed key: a waiting
  /// item departs no earlier than `after`, so one is ahead of them.
  /// Returns the item's departure time.
  Time send_after(const T& item, Time after) {
    std::size_t overtaken = 0;
    while (overtaken < unsettled_ &&
           departure_of(items_[items_.size() - 1 - overtaken]) > after) {
      ++overtaken;
    }
    if (overtaken == 0) return send(item);
    const std::size_t at = items_.size() - overtaken;
    const Time depart = departure_of(items_[at]);
    assert(depart == after + service_ && depart > sim_->now());
    items_.insert(at, Transit{key_for(depart), item});
    for (std::size_t i = at + 1; i < items_.size(); ++i) {
      items_[i].key = key_for(departure_of(items_[i]) + service_);
    }
    last_departure_ += service_;
    ++sent_;
    ++unsettled_;
    ++waiting_;
    return depart;
  }

  /// Runs Owner::depart on every item that has departed by now and not
  /// been judged yet, in departure order.
  void settle() {
    const Time now = sim_->now();
    while (unsettled_ > 0) {
      const std::size_t i = items_.size() - unsettled_;
      if (departure_of(items_[i]) > now) break;
      --unsettled_;
      if (!owner_->depart(items_[i].item)) {
        items_[i].key.seq = 0;  // dropped: skipped when it reaches the head
        ++dropped_;
      }
    }
    waiting_ = unsettled_;  // what is left unjudged has not departed
  }

  [[nodiscard]] Time delay() const { return delay_; }
  [[nodiscard]] Time service() const { return service_; }
  /// Departure time of the last item sent (zero before the first).
  [[nodiscard]] Time last_departure() const { return last_departure_; }

  /// Items that have not departed yet: their departure is after now().
  [[nodiscard]] std::size_t waiting() const {
    const Time now = sim_->now();
    if (!service_.is_zero()) {
      // They depart back to back, service() apart, ending at
      // last_departure(): no need to look at them.
      if (last_departure_ <= now) return 0;
      const std::int64_t s = service_.nanoseconds();
      return static_cast<std::size_t>(
          ((last_departure_ - now).nanoseconds() + s - 1) / s);
    }
    return catch_up(now);
  }
  /// waiting() plus the item, if any, whose departure is now() and that
  /// is still on the line: the serializer's queue under the opposite
  /// tie, where an item departing at this instant has not left yet.
  [[nodiscard]] std::size_t waiting_or_departing() const {
    const std::size_t w = waiting();
    const std::size_t first = items_.size() - w;  // first waiting item
    const bool departing =
        first > 0 && departure_of(items_[first - 1]) == sim_->now();
    return w + (departing ? 1 : 0);
  }
  /// Items sent that have departed by now, dropped ones included.
  [[nodiscard]] std::uint64_t departed() const { return sent_ - waiting(); }
  /// Items sent and neither arrived nor dropped, waiting ones included.
  [[nodiscard]] std::size_t size() const { return items_.size() - dropped_; }

 private:
  struct Transit {
    Reservation key;  // seq 0: depart() dropped the item
    T item;
  };

  /// Moves the cursor past the items departed by `now`. Kept out of
  /// line: inlined into every read of a fixed-service line's queue (an
  /// ATM port's, which never runs it), it made e2ebench's chaos_soak
  /// about 4% slower per cell (4-vCPU x86-64 VM).
  [[gnu::noinline]] std::size_t catch_up(Time now) const {
    while (waiting_ > 0 &&
           departure_of(items_[items_.size() - waiting_]) <= now) {
      --waiting_;
    }
    return waiting_;
  }

  [[nodiscard]] Time departure_of(const Transit& t) const {
    return t.key.at - delay_;
  }
  Reservation key_for(Time depart) {
    return sim_->reserve(depart - sim_->now() + delay_);
  }

  void push(const T& item, Time depart) {
    items_.push_back(Transit{key_for(depart), item});
    if (items_.size() == 1) file_head();
  }

  void file_head() {
    sim_->schedule(items_.front().key, bind_member<&DelayLine::arrive>(this));
  }

  void arrive() {
    settle();
    const Transit head = items_.front();
    items_.pop_front();
    while (!items_.empty() && items_.front().key.seq == 0) {
      items_.pop_front();
      --dropped_;
    }
    if (!items_.empty()) file_head();
    if (head.key.seq == 0) {
      --dropped_;
      return;
    }
    owner_->arrive(head.item);
  }

  Simulator* sim_;
  Time delay_;
  Owner* owner_;
  Time service_ = Time::zero();
  Time last_departure_ = Time::zero();
  std::uint64_t sent_ = 0;
  std::size_t unsettled_ = 0;  // items at the back depart() has not seen
  /// Items at the back departing after the last time the line looked;
  /// on a per-item line waiting() moves this cursor past each departed
  /// item, lazily (a count, not an event), hence mutable.
  mutable std::size_t waiting_ = 0;
  std::size_t dropped_ = 0;  // dropped items still in items_
  Ring<Transit> items_;
};

}  // namespace phantom::sim
