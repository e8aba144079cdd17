// Pending-event set for the discrete-event kernel.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "sim/time.h"

namespace phantom::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class EventQueue;
  constexpr EventId(std::uint64_t s, std::uint32_t slot)
      : seq_{s}, slot_{slot} {}
  // The seq alone identifies the event; the slot makes cancel O(1)
  // (a direct index into the queue's slot table, validated by seq).
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

/// The (time, seq) ordering key of an event, drawn before the event is
/// filed (see EventQueue::reserve). Keys are unique: seq is never reused.
struct Reservation {
  Time at;
  std::uint64_t seq = 0;
};

/// Min-heap of timestamped callbacks with deterministic FIFO tie-breaking:
/// events scheduled for the same instant fire in scheduling order. This is
/// what makes simulations reproducible run-to-run regardless of heap
/// internals.
///
/// An event's place in that order is its (time, seq) key, and the key
/// can be drawn before the event is filed: reserve() hands it out,
/// schedule(Reservation, f) files it later, and the event then fires
/// exactly where it would have had it been scheduled at reserve time.
/// A constant-delay link uses this to keep one event per busy link
/// instead of one per cell in transit (see sim::DelayLine).
///
/// Layout (see DESIGN.md §11): a flat 4-ary min-heap of trivially
/// copyable {time, seq, slot} nodes over a table of callback slots kept
/// in fixed-size chunks that never move. schedule() builds each
/// callback in its slot, and run_next() calls it there. Nothing on the
/// schedule/run path allocates once the heap and the slot table have
/// reached the run's high-water mark.
///
/// Cancellation is O(1) and releases the callback (and everything it
/// captured) immediately: the slot is invalidated and freed for reuse,
/// while the heap node remains as a tombstone. A tombstone is detected
/// generationally — its seq no longer matches the slot's, whether the
/// slot is free or was reused — so no per-event hash set of cancelled
/// ids is needed. Tombstones that reach the heap top are discarded
/// there; once they outnumber the live events, cancel() drops them all
/// and re-heapifies (amortized O(1) per cancel), so the heap tracks the
/// live count even when a timer is re-armed on every packet.
class EventQueue {
 public:
  /// Inline capture budget for event callbacks. The hot closures are a
  /// pointer or two (bind_member ticks, delay-line heads); no hot
  /// closure carries a cell or a packet. The budget is for the cold
  /// ones: lambdas capturing a few values, a wrapped std::function
  /// (32 bytes on libstdc++), or a test's cell-sized payload (48-byte
  /// atm::Cell plus a pointer, pinned in bench_micro). A 48-byte budget
  /// measured no faster on the end-to-end benchmark. Callbacks beyond
  /// the budget still work — they heap-allocate and bump
  /// InlineFunction's fallback counter.
  static constexpr std::size_t kInlineCallbackBytes = 96;
  using Callback = InlineFunction<kInlineCallbackBytes>;

  /// Schedules `f` (a void() callable, an EventQueue::Callback rvalue,
  /// or nullptr) at absolute time `at`, building the callback in its
  /// slot. `at` may equal the time of the event currently executing
  /// (zero-delay events are allowed) but must never be in the past
  /// relative to the last run event — that throws std::logic_error in
  /// every build type, as does a null callback. If scheduling throws,
  /// the queue holds no trace of the event.
  template <typename F>
  EventId schedule(Time at, F&& f) {
    return insert(reserve(at), std::forward<F>(f));
  }

  /// Draws the ordering key of an event at `at` without filing it: the
  /// event's seq is taken now, so once filed it fires after every event
  /// scheduled before this call and before every event scheduled after
  /// it, at the same instant. Throws std::logic_error if `at` is before
  /// the last run event.
  Reservation reserve(Time at) {
    if (at < floor_) throw_before_floor("reserve", at);
    return Reservation{at, next_seq_++};
  }

  /// Files `f` under a key from reserve(). A key is filed at most once.
  /// Throws std::logic_error if the key orders before the last run
  /// event (the clock has passed it), or if the callback is null.
  template <typename F>
  EventId schedule(Reservation key, F&& f) {
    if (key.at < floor_ || (key.at == floor_ && key.seq <= floor_seq_)) {
      throw_before_floor("schedule", key.at);
    }
    assert(key.seq != 0 && key.seq < next_seq_ && "key not from reserve()");
    return insert(key, std::forward<F>(f));
  }

  /// Cancels a pending event, destroying its callback (and captured
  /// state) immediately. Cancelling an already-run, running or
  /// already-cancelled event is a harmless no-op.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }
  /// High-water mark of live (scheduled, not yet run or cancelled)
  /// events over this queue's lifetime.
  [[nodiscard]] std::size_t peak_size() const { return peak_live_; }
  /// Heap nodes held: live events plus tombstones of cancelled events
  /// not yet discarded. Right after a cancel() of a live event this is
  /// at most 2 * size().
  [[nodiscard]] std::size_t heap_nodes() const {
    return heap_.size() - (root_vacant_ ? 1 : 0);
  }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] Time next_time() const;

  /// Whether `key` orders before the last run event's key: inside a
  /// callback, the running event's.
  [[nodiscard]] bool before_last_run(Reservation key) const {
    return before(Node{key.at, key.seq, 0}, Node{floor_, floor_seq_, 0});
  }
  /// Whether `key` orders before every live event (true when none is
  /// pending).
  [[nodiscard]] bool before_next(Reservation key) const;

  /// Runs the earliest live event if it is due by `deadline`: advances
  /// `clock` to its time, calls its callback in place, then destroys
  /// the callback and frees its slot — also when the callback throws,
  /// which then propagates. While the callback runs, its own event
  /// counts as gone (size() excludes it, and cancelling it is a no-op);
  /// it may schedule and cancel other events freely. Returns false,
  /// running nothing, when the queue is empty or its earliest event is
  /// after `deadline`.
  bool run_next(Time deadline, Time& clock);

  /// run_next() for a caller that has just peeked: runs the earliest
  /// live event, whose time next_time() returned, scheduling and
  /// cancelling nothing in between. next_time() has already settled the
  /// root and checked that it is live, so neither is done again. A
  /// watchdog loop checks its budgets between the two calls, so an
  /// event taken off the queue always runs.
  void run_front(Time& clock);

 private:
  // One heap node per scheduled event (plus tombstones of cancelled
  // events). Trivially copyable on purpose: sifting a 4-ary heap moves
  // nodes, and 24-byte memcpy-able nodes keep that cheap — the
  // callbacks themselves never move after scheduling.
  struct Node {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Callback storage, indexed by Node::slot / EventId::slot_. `seq` is
  // the generation check: it matches the node's seq while the event is
  // live, and is 0 while the slot is free or its callback is running.
  // Seqs are unique, so a stale node or id can never match again, even
  // once the slot is reused.
  struct Slot {
    std::uint64_t seq = 0;
    std::uint32_t next_free = 0;  // free-list link while free
    Callback callback;
  };

  static constexpr std::size_t kArity = 4;
  // Slots come in chunks that never move, so a callback can run where
  // it sits while it schedules events that grow the table.
  static constexpr unsigned kChunkBits = 6;  // 64 slots, 8 KiB
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] static bool before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  [[nodiscard]] Slot& slot_at(std::uint32_t slot) const {
    return chunks_[slot >> kChunkBits][slot & ((1u << kChunkBits) - 1)];
  }
  [[nodiscard]] bool is_live(const Node& n) const {
    return slot_at(n.slot).seq == n.seq;
  }
  [[noreturn]] void throw_before_floor(const char* op, Time at) const;
  [[noreturn]] static void throw_null_callback();

  // Builds the callback in a free slot, then files it under `key`.
  template <typename F>
  EventId insert(Reservation key, F&& f) {
    const std::uint32_t slot = acquire_slot();
    Callback& cb = slot_at(slot).callback;
    try {
      cb.emplace(std::forward<F>(f));
    } catch (...) {
      release_slot(slot);
      throw;
    }
    if (!cb) {
      release_slot(slot);
      throw_null_callback();
    }
    return file(key, slot);
  }
  std::uint32_t acquire_slot() {
    if (free_head_ == kNoSlot) return grow();
    const std::uint32_t slot = free_head_;
    free_head_ = slot_at(slot).next_free;
    return slot;
  }
  std::uint32_t grow();
  void release_slot(std::uint32_t slot) noexcept {
    Slot& s = slot_at(slot);
    s.callback.reset();
    s.next_free = free_head_;
    free_head_ = slot;
  }
  EventId file(Reservation key, std::uint32_t slot);
  // Place `node` by moving the hole at `i` up or down. The node is
  // passed in, not read back from the heap: writing it into the hole
  // and reloading it at once cost a store-forwarding stall per fused
  // schedule (bench_micro's dispatch rows).
  void sift_up(std::size_t i, Node node) const;
  void sift_down(std::size_t i, Node node) const;
  void remove_root() const;
  // Tombstones carry no callback (released at cancel), so discarding
  // them here is pure heap bookkeeping.
  void drop_cancelled_head() const {
    while (!heap_.empty() && !is_live(heap_.front())) remove_root();
  }
  void compact();
  // Runs the live event at the settled root: the shared body of
  // run_next() and run_front(), defined (inline) in event_queue.cc.
  inline void run_root(Time& clock);

  // Fills the root left vacant by run_next() with the last node. The
  // first schedule() after a run fills it with the new node instead:
  // one sift_down, where remove-then-insert costs a sift_down and a
  // sift_up.
  void settle() const {
    if (root_vacant_) {
      root_vacant_ = false;
      remove_root();
    }
  }

  // `mutable`: const observers (next_time) settle the vacant root and
  // discard tombstones that have reached the heap top; live events and
  // slots are never touched.
  mutable std::vector<Node> heap_;
  // heap_[0] is the hole of the last run event's node (its slot is
  // running or free, so the node reads as dead).
  mutable bool root_vacant_ = false;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;  // slots ever created
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t peak_live_ = 0;
  Time floor_ = Time::zero();  // time of the last run event
  std::uint64_t floor_seq_ = 0;  // and its seq
};

}  // namespace phantom::sim
