#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace phantom::sim {

void EventQueue::throw_before_floor(const char* op, Time at) const {
  throw std::logic_error{std::string{"EventQueue::"} + op + ": " +
                         at.to_string() +
                         " orders before the last run event (" +
                         floor_.to_string() + ")"};
}

void EventQueue::throw_null_callback() {
  throw std::logic_error{"EventQueue::schedule: null callback"};
}

std::uint32_t EventQueue::grow() {
  if ((slot_count_ & ((1u << kChunkBits) - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(std::size_t{1} << kChunkBits));
  }
  return slot_count_++;
}

EventId EventQueue::file(Reservation key, std::uint32_t slot) {
  slot_at(slot).seq = key.seq;
  const Node node{key.at, key.seq, slot};
  if (root_vacant_) {
    // Fused run/schedule: the new node takes the hole run_next() left.
    root_vacant_ = false;
    sift_down(0, node);
  } else {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, node);
  }
  ++live_count_;
  peak_live_ = std::max(peak_live_, live_count_);
  return EventId{key.seq, slot};
}

void EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slot_count_) return;  // null, or foreign
  Slot& s = slot_at(id.slot_);
  if (s.seq != id.seq_) return;  // already run, running or cancelled
  // Eager release: whatever the callback captured (cells, session
  // state, shared link handles) dies now, not when the tombstone
  // eventually surfaces at the heap top.
  s.seq = 0;
  release_slot(id.slot_);
  --live_count_;
  if (heap_.size() > 2 * live_count_) compact();
}

void EventQueue::compact() {
  // Drops every dead node at once. A vacant root holds the node of the
  // event run last, whose slot is running or free, so it goes too.
  std::erase_if(heap_, [this](const Node& n) { return !is_live(n); });
  root_vacant_ = false;
  assert(heap_.size() == live_count_);
  // Bottom-up heapify: O(n), against O(n log n) for n re-inserts.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i, heap_[i]);
    }
  }
}

void EventQueue::sift_up(std::size_t i, Node node) const {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void EventQueue::sift_down(std::size_t i, Node node) const {
  // A plain scan of each group of children: branch-free tournaments
  // over full groups of four measured slower (DESIGN.md §11).
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], node)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = node;
}

void EventQueue::remove_root() const {
  const Node last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

Time EventQueue::next_time() const {
  settle();
  drop_cancelled_head();
  assert(!heap_.empty() && "next_time() on empty queue");
  return heap_.front().time;
}

bool EventQueue::before_next(Reservation key) const {
  settle();
  drop_cancelled_head();
  return heap_.empty() || before(Node{key.at, key.seq, 0}, heap_.front());
}

// Forced inline into both entry points, so run_next() pays no extra
// call per event: called out of line, it cost abr_parking_lot, the
// workload with the most events per cell, 3% of its ns_per_cell.
[[gnu::always_inline]] inline void EventQueue::run_root(Time& clock) {
  const Node top = heap_.front();
  assert(top.time >= clock && "the clock never goes back");
  // Leave the root vacant: the callback usually schedules a follow-up
  // event, which then fills the hole (see settle()).
  root_vacant_ = true;
  floor_ = top.time;
  floor_seq_ = top.seq;
  clock = top.time;
  Slot& s = slot_at(top.slot);
  assert(s.seq == top.seq && "the run event's slot holds another event");
  s.seq = 0;  // running: a cancel of this event is now a no-op
  --live_count_;
  // Slots never move, so the callback runs where it sits even if it
  // schedules enough to grow the table; its slot is freed afterwards.
  struct Release {
    EventQueue* queue;
    std::uint32_t slot;
    ~Release() { queue->release_slot(slot); }
  } release{this, top.slot};
  s.callback();
}

bool EventQueue::run_next(Time deadline, Time& clock) {
  settle();
  drop_cancelled_head();
  if (heap_.empty() || heap_.front().time > deadline) return false;
  run_root(clock);
  return true;
}

void EventQueue::run_front(Time& clock) {
  assert(!root_vacant_ && !heap_.empty() && is_live(heap_.front()) &&
         "run_front() must follow next_time()");
  run_root(clock);
}

}  // namespace phantom::sim
