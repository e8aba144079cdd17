// Constant-delay FIFO hop, optionally fed by a serializer, with one
// kernel event per busy line, or none for an item whose arrival nobody
// acts on.
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
/// Quiet items. An owner may also declare `bool Owner::quiet(const T&)
/// const`: true for an item whose arrival nobody acts on at that
/// instant. Such an item files no event. The line hands it to `void
/// Owner::arrive_quiet(const T&, Time at)`, with its arrival instant,
/// lazily and in line order, whenever something could observe it: the
/// arrival event of the next filed item, the next send(), a settle(),
/// or a read that calls catch_up() first. An item has arrived when
/// Simulator::has_run(its key) says its event would have run by then.
/// The line judges items when the one-event-per-item line would have:
/// at each arrival of that line's head, the first item not dropped when
/// the previous head arrived (the line marks it as it goes; a dropped
/// item behind it had no event). So a read splits lost and in-flight
/// items exactly as that line did. After each filed arrival the line
/// files the first item behind it that quiet() refuses, and only that
/// one: quiet() is asked when the chain reaches an item. An owner whose
/// quiet() may turn false for items already on the line calls settle()
/// or wake() first; either files the head, and the chain then goes on
/// item by item. The choice is made at compile time: a line whose owner
/// declares no quiet() keeps exactly one event per item.
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
  /// Whether the owner lets items arrive without an event.
  static constexpr bool kQuiet =
      requires(const Owner& o, const T& item) { o.quiet(item); };

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
    // Before the new item is counted: handing over judges items up to
    // each arrival, counting from the back of the line.
    if constexpr (kQuiet) {
      catch_up();
      cancel_skipped();
    }
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
  /// Returns the item's departure time. Not for a line that carries
  /// quiet items: a filed item could be among the overtaken ones.
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
      assert((items_[i].key.seq & kFlags) == 0);
      items_[i].key = key_for(departure_of(items_[i]) + service_);
    }
    last_departure_ += service_;
    ++sent_;
    ++unsettled_;
    ++waiting_;
    return depart;
  }

  /// Runs Owner::depart on every item that has departed by now and not
  /// been judged yet, in departure order. On a line with quiet items it
  /// first hands over the arrivals that are due, and afterwards files
  /// the evented line's head, so that the chain goes on item by item
  /// under whatever the owner decides next.
  void settle() {
    if constexpr (kQuiet) catch_up();
    judge(sim_->now());
    if constexpr (kQuiet) {
      cancel_skipped();
      file_next(true);
    }
  }

  /// Hands every quiet item whose arrival has happened
  /// (Simulator::has_run) to Owner::arrive_quiet, in line order, each
  /// after judging the items departed by its arrival instant. Whoever
  /// reads what the owner has received calls this first.
  void catch_up()
    requires kQuiet
  {
    if (!items_.empty() && !is_filed(items_.front())) take_arrived();
  }

  /// catch_up(), then files the evented line's head: for an owner whose
  /// quiet() is about to refuse items it accepted so far.
  void wake()
    requires kQuiet
  {
    catch_up();
    cancel_skipped();
    file_next(true);
  }

  /// Items handed over without an arrival event so far.
  [[nodiscard]] std::uint64_t quiet_arrivals() const { return quiet_; }

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
    return pass_departed(now);
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
  /// Items sent and neither arrived nor dropped, waiting ones included;
  /// with quiet items, exact after catch_up().
  [[nodiscard]] std::size_t size() const { return items_.size() - dropped_; }

 private:
  /// Flags ride in the top bits of the key's seq, so that a cell's
  /// Transit stays 64 bytes.
  struct Transit {
    Reservation key;
    T item;
  };
  static constexpr std::uint64_t kDropped = std::uint64_t{1} << 63;
  /// The key is filed.
  static constexpr std::uint64_t kFiled = std::uint64_t{1} << 62;
  /// The item became the front of the evented line, whose head is the
  /// first item not dropped, without being dropped: that line filed it,
  /// so its arrival settles the line even if it is dropped later.
  static constexpr std::uint64_t kHead = std::uint64_t{1} << 61;
  static constexpr std::uint64_t kFlags = kDropped | kFiled | kHead;

  [[nodiscard]] static bool is_dropped(const Transit& t) {
    return (t.key.seq & kDropped) != 0;
  }
  [[nodiscard]] static bool is_filed(const Transit& t) {
    return (t.key.seq & kFiled) != 0;
  }
  [[nodiscard]] static bool is_head(const Transit& t) {
    return (t.key.seq & kHead) != 0;
  }
  [[nodiscard]] static Reservation key_of(const Transit& t) {
    return Reservation{t.key.at, t.key.seq & ~kFlags};
  }

  /// Moves the cursor past the items departed by `now`. Kept out of
  /// line: inlined into every read of a fixed-service line's queue (an
  /// ATM port's, which never runs it), it made e2ebench's chaos_soak
  /// about 4% slower per cell (4-vCPU x86-64 VM).
  [[gnu::noinline]] std::size_t pass_departed(Time now) const {
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
    Transit& t = items_[items_.size() - 1];
    if constexpr (kQuiet) {
      if (head_pending_) {
        head_pending_ = false;
        t.key.seq |= kHead;
      }
      // An item behind a filed one waits for the chain to reach it.
      if (filed_ == 0 && !owner_->quiet(item)) file(t, items_.size() - 1);
    } else if (items_.size() == 1) {
      file(t, 0);
    }
  }

  /// Files the key of `t`, the item `i` places behind the front.
  void file(Transit& t, std::size_t i) {
    const EventId id =
        sim_->schedule(key_of(t), bind_member<&DelayLine::arrive>(this));
    if constexpr (kQuiet) {
      t.key.seq |= kFiled;
      ++filed_;
      if (!is_head(t)) {
        // Filed ahead of the quiet items before it; at most one such.
        assert(!behind_.valid());
        behind_ = id;
        behind_at_ = popped_ + i;
      }
    }
  }

  /// Runs Owner::depart on every unjudged item departed by `upto`.
  void judge(Time upto) {
    while (unsettled_ > 0) {
      const std::size_t i = items_.size() - unsettled_;
      if (departure_of(items_[i]) > upto) break;
      --unsettled_;
      if (!owner_->depart(items_[i].item)) {
        items_[i].key.seq |= kDropped;  // skipped when reached
        ++dropped_;
      }
    }
    // What is left unjudged departs after `upto`; on a per-item line
    // the cursor passes the rest.
    waiting_ = unsettled_;
  }

  // ---- quiet items: the evented line's head, tracked without events.

  /// Marks the evented line's next head, after its head left at the
  /// last judged instant: the first item not dropped by then. Dropped
  /// items ahead of it would have been skipped without an event.
  void mark_head() {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (!is_dropped(items_[i])) {
        items_[i].key.seq |= kHead;
        return;
      }
    }
    head_pending_ = true;  // the next item sent
  }

  /// Cancels the event of the filed item behind the head once that item
  /// is judged lost: the evented line skipped it without an event, and
  /// the chain goes on behind it. Called where the run, not a read,
  /// decides (send, settle, wake and each filed arrival), after the line
  /// is judged up to the due arrivals, so a read never moves an event.
  void cancel_skipped() {
    if (!behind_.valid()) return;
    Transit& t = items_[behind_at_ - popped_];
    if (is_head(t)) {
      behind_ = {};  // the evented line reached it: its event settles
      return;
    }
    if (!is_dropped(t)) return;
    sim_->cancel(behind_);
    behind_ = {};
    t.key.seq &= ~kFiled;
    --filed_;
    file_next();
  }

  /// catch_up()'s loop, kept out of line: a line whose front is filed
  /// (every line but a registered destination's) skips it in send().
  [[gnu::noinline]] void take_arrived() {
    while (!items_.empty() && !is_filed(items_.front())) {
      const Transit& t = items_.front();
      if (is_head(t) && !sim_->has_run(key_of(t))) return;
      take_front();
    }
  }

  /// Takes the unfiled front item off the line. A head has arrived: the
  /// line is judged up to its arrival, and a live one is handed over.
  /// Anything else there is a dropped item the evented line skipped.
  void take_front() {
    if (!is_head(items_.front())) {
      assert(is_dropped(items_.front()));
      items_.pop_front();
      ++popped_;
      --dropped_;
      return;
    }
    judge(items_.front().key.at);
    const Transit t = items_.front();
    items_.pop_front();
    ++popped_;
    mark_head();
    if (is_dropped(t)) {
      --dropped_;
      return;
    }
    assert(owner_->quiet(t.item) && "quiet() turned false without wake()");
    ++quiet_;
    owner_->arrive_quiet(t.item, t.key.at);
  }

  /// Files the first item that needs an event (the head, or a live item
  /// behind it, that quiet() refuses; with `head`, the head whatever
  /// quiet() says), unless a filed item comes first.
  void file_next(bool head = false) {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      Transit& t = items_[i];
      if (is_filed(t)) return;
      if ((is_head(t) || !is_dropped(t)) && (head || !owner_->quiet(t.item))) {
        file(t, i);
        return;
      }
    }
  }

  void arrive() {
    if constexpr (kQuiet) {
      // Everything ahead of the first filed item arrived before it.
      if (!is_filed(items_.front())) take_arrived();
      assert(is_filed(items_.front()));
      // A filed item that was dropped before the evented line reached
      // it had no event there, so it settles nothing.
      const bool evented = is_head(items_.front());
      assert(evented || is_dropped(items_.front()));
      if (evented) judge(sim_->now());
      const Transit head = items_.front();
      items_.pop_front();
      if (behind_.valid() && behind_at_ == popped_) behind_ = {};  // this one
      ++popped_;
      --filed_;
      if (evented) mark_head();
      cancel_skipped();
      file_next();
      if (is_dropped(head)) {
        --dropped_;
        return;
      }
      owner_->arrive(head.item);
    } else {
      judge(sim_->now());
      const Transit head = items_.front();
      items_.pop_front();
      while (!items_.empty() && is_dropped(items_.front())) {
        items_.pop_front();
        --dropped_;
      }
      if (!items_.empty()) file(items_.front(), 0);
      if (is_dropped(head)) {
        --dropped_;
        return;
      }
      owner_->arrive(head.item);
    }
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
  std::size_t filed_ = 0;      // items whose key is filed
  /// The event of the filed item behind the head, if any, and that
  /// item's place counted from the first item ever on the line.
  EventId behind_;
  std::uint64_t behind_at_ = 0;
  std::uint64_t popped_ = 0;   // items taken off the front
  bool head_pending_ = true;   // no item on the line is the head
  std::uint64_t quiet_ = 0;    // items handed over without an event
  Ring<Transit> items_;
};

}  // namespace phantom::sim
