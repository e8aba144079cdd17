// TCP receiver: cumulative ACKs with out-of-order reassembly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/packet.h"

namespace phantom::tcp {

struct TcpSinkOptions {
  /// RFC-1122-style delayed ACKs: acknowledge every second in-order
  /// segment, or after `delayed_ack_timeout`, whichever comes first.
  /// Out-of-order and duplicate segments are always ACKed immediately
  /// (the sender's fast-retransmit depends on prompt duplicate ACKs).
  /// Off by default, matching the paper-era simulations.
  bool delayed_acks = false;
  sim::Time delayed_ack_timeout = sim::Time::ms(200);
};

/// Receiver for one flow. Emits cumulative ACKs echoing each segment's
/// timestamp (for RTT measurement) and its EFCI bit (for the EFCI
/// mechanism).
class TcpSink final : public PacketSink {
 public:
  using Emitter = std::function<void(const Packet&)>;

  TcpSink(sim::Simulator& sim, int flow, Emitter emit_ack,
          TcpSinkOptions options = {});

  TcpSink(const TcpSink&) = delete;
  TcpSink& operator=(const TcpSink&) = delete;

  void receive_packet(const Packet& packet) override;

  [[nodiscard]] int flow() const { return flow_; }
  /// In-order bytes delivered to the application (the goodput counter).
  [[nodiscard]] std::int64_t delivered_bytes() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_; }
  [[nodiscard]] std::uint64_t out_of_order_segments() const { return ooo_; }
  [[nodiscard]] std::uint64_t duplicate_segments() const { return dups_; }

 private:
  void buffer_segment(std::int64_t start, std::int64_t end);
  void emit_cumulative_ack(const Packet& trigger);
  void flush_delayed_ack();

  int flow_;
  Emitter emit_ack_;
  TcpSinkOptions options_;
  Packet pending_trigger_{};  // the segment a pending delayed ACK answers
  sim::Timer delayed_timer_;
  std::int64_t rcv_nxt_ = 0;
  // Out-of-order byte ranges [start, end) beyond rcv_nxt_: disjoint,
  // non-touching, sorted by start. A flat vector: it holds a window's
  // worth of holes at most, and stops allocating at its high-water mark.
  struct Range {
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Range> pending_;
  std::uint64_t acks_ = 0;
  std::uint64_t ooo_ = 0;
  std::uint64_t dups_ = 0;
};

}  // namespace phantom::tcp
