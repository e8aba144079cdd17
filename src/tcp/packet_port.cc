#include "tcp/packet_port.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace phantom::tcp {

sim::Time packet_time_at(sim::Rate rate, std::int64_t bits) {
  const double bps = rate.bits_per_sec();
  if (!std::isfinite(bps) || bps <= 0.0) {
    throw std::invalid_argument{"PacketPort: link rate must be finite and "
                                "positive, got " + rate.to_string()};
  }
  const double seconds = static_cast<double>(bits) / bps;
  const double ns = seconds * 1e9;
  if (ns < 0.5 ||
      ns >= static_cast<double>(std::numeric_limits<std::int64_t>::max())) {
    throw std::invalid_argument{"PacketPort: the packet time at " +
                                rate.to_string() + " for " +
                                std::to_string(bits) +
                                " bits does not fit in sim::Time"};
  }
  return sim::Time::from_seconds(seconds);  // Rate::transmission_time
}

// The simulator is the link's: the port schedules nothing of its own.
PacketPort::PacketPort(sim::Simulator& /*sim*/, sim::Rate rate,
                       std::size_t queue_limit, PacketLink link,
                       std::unique_ptr<QueuePolicy> policy)
    : times_{rate},
      queue_limit_{queue_limit},
      link_{link},
      policy_{std::move(policy)} {
  assert(queue_limit_ > 0);
  if (!policy_) policy_ = std::make_unique<DropTailPolicy>();
}

void PacketPort::send(const Packet& packet) {
  if (packet.kind == PacketKind::kData) {
    const Verdict v = policy_->on_arrival(packet, queue_length(), queue_limit_);
    if (v.send_quench && quench_tap_) quench_tap_(packet);
    if (v.drop) {
      ++dropped_;
      return;
    }
    if (v.mark_efci && !packet.efci) {
      Packet marked = packet;
      marked.efci = true;
      enqueue(marked);
      return;
    }
  }
  enqueue(packet);
}

void PacketPort::enqueue(const Packet& packet) {
  // Read again: the quench tap may have queued on this very port.
  const std::size_t queued = queue_length();
  if (queued >= queue_limit_) {
    ++dropped_;
    policy_->on_overflow(packet);
    return;
  }
  link_.line().send(packet, times_.of(packet.wire_bits()));
  ++accepted_;
  max_queue_ = std::max(max_queue_, queued + 1);
}

}  // namespace phantom::tcp
