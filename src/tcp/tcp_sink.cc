#include "tcp/tcp_sink.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>

namespace phantom::tcp {

TcpSink::TcpSink(sim::Simulator& sim, int flow, Emitter emit_ack,
                 TcpSinkOptions options)
    : flow_{flow},
      emit_ack_{std::move(emit_ack)},
      options_{options},
      delayed_timer_{sim, sim::bind_member<&TcpSink::flush_delayed_ack>(this)} {
  if (!emit_ack_) throw std::invalid_argument{"TcpSink needs an emitter"};
}

void TcpSink::receive_packet(const Packet& packet) {
  if (packet.kind != PacketKind::kData || packet.flow != flow_) return;
  const std::int64_t start = packet.seq;
  const std::int64_t end = packet.seq + packet.payload;

  bool in_order = false;
  if (end <= rcv_nxt_) {
    ++dups_;  // fully duplicate segment
  } else if (start <= rcv_nxt_) {
    in_order = true;
    rcv_nxt_ = end;
    // Pull any previously buffered ranges that are now contiguous.
    auto it = pending_.begin();
    for (; it != pending_.end() && it->start <= rcv_nxt_; ++it) {
      rcv_nxt_ = std::max(rcv_nxt_, it->end);
    }
    pending_.erase(pending_.begin(), it);
  } else {
    ++ooo_;
    buffer_segment(start, end);
  }

  // The delayed-ACK timer is armed exactly while an ACK is pending.
  if (options_.delayed_acks && in_order && pending_.empty()) {
    if (delayed_timer_.armed()) {
      // Second in-order segment: one ACK now covers both.
      delayed_timer_.disarm();
      emit_cumulative_ack(packet);
    } else {
      pending_trigger_ = packet;
      delayed_timer_.arm(options_.delayed_ack_timeout);
    }
    return;
  }
  // Immediate ACK: plain mode, or a duplicate / out-of-order segment
  // (which must generate prompt duplicate ACKs). A pending delayed ACK
  // is superseded — the cumulative ACK emitted here covers it.
  delayed_timer_.disarm();
  emit_cumulative_ack(packet);
}

void TcpSink::emit_cumulative_ack(const Packet& trigger) {
  Packet ack = Packet::make_ack(flow_, rcv_nxt_);
  ack.timestamp = trigger.timestamp;
  ack.ack_efci = trigger.efci;
  ++acks_;
  emit_ack_(ack);
}

void TcpSink::flush_delayed_ack() { emit_cumulative_ack(pending_trigger_); }

void TcpSink::buffer_segment(std::int64_t start, std::int64_t end) {
  // Merge [start, end) with every pending range it overlaps or touches
  // into the first of them, then drop the rest.
  auto first = std::lower_bound(
      pending_.begin(), pending_.end(), start,
      [](const Range& r, std::int64_t s) { return r.start < s; });
  if (first != pending_.begin() && std::prev(first)->end >= start) --first;
  auto last = first;
  for (; last != pending_.end() && last->start <= end; ++last) {
    start = std::min(start, last->start);
    end = std::max(end, last->end);
  }
  if (first == last) {
    pending_.insert(first, Range{start, end});
  } else {
    *first = Range{start, end};
    pending_.erase(first + 1, last);
  }
}

}  // namespace phantom::tcp
