// Pending-event set for the discrete-event kernel.
#pragma once

#include <cstdint>
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
/// schedule(Reservation, cb) files it later, and the event then fires
/// exactly where it would have had it been scheduled at reserve time.
/// A constant-delay link uses this to keep one event per busy link
/// instead of one per cell in transit (see sim::DelayLine).
///
/// Layout (see DESIGN.md §11): a flat 4-ary min-heap of trivially
/// copyable {time, seq, slot} nodes over a plain vector of slots that
/// hold the callbacks. Nothing on the schedule/pop path allocates once
/// the vectors have reached the run's high-water mark.
///
/// Cancellation is O(1) and releases the callback (and everything it
/// captured) immediately: the slot is invalidated and freed for reuse,
/// while the heap node remains as a tombstone that is discarded when it
/// reaches the top. A tombstone is detected generationally — its seq no
/// longer matches the slot's, whether the slot is free or was reused —
/// so no per-event hash set of cancelled ids is needed.
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

  /// Schedules `cb` at absolute time `at`. `at` may equal the time of the
  /// event currently executing (zero-delay events are allowed) but must
  /// never be in the past relative to the last popped event — that throws
  /// std::logic_error in every build type.
  EventId schedule(Time at, Callback cb);

  /// Draws the ordering key of an event at `at` without filing it: the
  /// event's seq is taken now, so once filed it fires after every event
  /// scheduled before this call and before every event scheduled after
  /// it, at the same instant. Throws std::logic_error if `at` is before
  /// the last popped event.
  Reservation reserve(Time at) {
    if (at < floor_) throw_before_floor("reserve", at);
    return Reservation{at, next_seq_++};
  }

  /// Files `cb` under a key from reserve(). A key is filed at most once.
  /// Throws std::logic_error if the key orders before the last popped
  /// event (the clock has passed it), or if `cb` is null.
  EventId schedule(Reservation key, Callback cb);

  /// Cancels a pending event, destroying its callback (and captured
  /// state) immediately. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }
  /// High-water mark of live (scheduled, not yet fired or cancelled)
  /// events over this queue's lifetime.
  [[nodiscard]] std::size_t peak_size() const { return peak_live_; }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] Time next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  struct Popped {
    Time time;
    Callback callback;
  };
  Popped pop();

 private:
  // One heap node per scheduled event (plus tombstones of cancelled
  // events until they surface). Trivially copyable on purpose: sifting
  // a 4-ary heap moves nodes, and 24-byte memcpy-able nodes keep that
  // cheap — the callbacks themselves never move after scheduling.
  struct Node {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Callback storage, indexed by Node::slot / EventId::slot_. `seq` is
  // the generation check: it matches the node's seq while the event is
  // live, and can never match again after the event fired or was
  // cancelled (seqs are unique), even once the slot is reused.
  struct Slot {
    std::uint64_t seq = 0;  // 0 = free
    Callback callback;
  };

  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static bool before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  [[nodiscard]] bool is_live(const Node& n) const {
    return slots_[n.slot].seq == n.seq;
  }
  [[noreturn]] void throw_before_floor(const char* op, Time at) const;
  // Files `cb` (moved from) under a key already checked against the
  // clock. Takes the callback by reference so each public schedule()
  // relocates it once, into its slot.
  EventId insert(Reservation key, Callback& cb);
  // Place `node` by moving the hole at `i` up or down. The node is
  // passed in, not read back from the heap: writing it into the hole
  // and reloading it at once cost a store-forwarding stall per fused
  // schedule (bench_micro's dispatch rows).
  void sift_up(std::size_t i, Node node) const;
  void sift_down(std::size_t i, Node node) const;
  void remove_root() const;
  void drop_cancelled_head() const;
  void free_slot(std::uint32_t slot);

  // Fills the root left vacant by pop() with the last node. The first
  // schedule() after a pop fills it with the new node instead: one
  // sift_down, where remove-then-insert costs a sift_down and a sift_up.
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
  mutable bool root_vacant_ = false;  // heap_[0] is a popped node's hole
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t peak_live_ = 0;
  Time floor_ = Time::zero();  // time of the last popped event
  std::uint64_t floor_seq_ = 0;  // and its seq
};

}  // namespace phantom::sim
