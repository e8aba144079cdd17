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
                         " orders before the last popped event (" +
                         floor_.to_string() + ")"};
}

EventId EventQueue::schedule(Time at, Callback cb) {
  return insert(reserve(at), cb);
}

EventId EventQueue::schedule(Reservation key, Callback cb) {
  if (key.at < floor_ || (key.at == floor_ && key.seq <= floor_seq_)) {
    throw_before_floor("schedule", key.at);
  }
  assert(key.seq != 0 && key.seq < next_seq_ && "key not from reserve()");
  return insert(key, cb);
}

EventId EventQueue::insert(Reservation key, Callback& cb) {
  if (!cb) throw std::logic_error{"EventQueue::schedule: null callback"};
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.seq = key.seq;
  s.callback = std::move(cb);
  const Node node{key.at, key.seq, slot};
  if (root_vacant_) {
    // Fused pop/schedule: the new node takes the hole pop() left.
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
  if (!id.valid()) return;
  if (id.slot_ >= slots_.size()) return;  // id from another queue
  Slot& s = slots_[id.slot_];
  if (s.seq != id.seq_) return;  // already fired or cancelled
  // Eager release: whatever the callback captured (cells, session
  // state, shared link handles) dies now, not when the tombstone
  // eventually surfaces at the heap top.
  s.callback.reset();
  free_slot(id.slot_);
  --live_count_;
}

void EventQueue::free_slot(std::uint32_t slot) {
  slots_[slot].seq = 0;
  free_slots_.push_back(slot);
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

void EventQueue::drop_cancelled_head() const {
  // Tombstones carry no callback (released at cancel), so discarding
  // them here is pure heap bookkeeping.
  while (!heap_.empty() && !is_live(heap_.front())) remove_root();
}

Time EventQueue::next_time() const {
  settle();
  drop_cancelled_head();
  assert(!heap_.empty() && "next_time() on empty queue");
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  settle();
  drop_cancelled_head();
  assert(!heap_.empty() && "pop() on empty queue");
  const Node top = heap_.front();
  // Leave the root vacant: the popped callback usually schedules a
  // follow-up event, which then fills the hole (see settle()).
  root_vacant_ = true;
  floor_ = top.time;
  floor_seq_ = top.seq;
  Slot& s = slots_[top.slot];
  assert(s.seq == top.seq);
  Popped out{top.time, std::move(s.callback)};
  free_slot(top.slot);
  --live_count_;
  return out;
}

}  // namespace phantom::sim
