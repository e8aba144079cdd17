// Router output port for packets: a departure-time queue + queue
// policy, the packet twin of atm::OutputPort.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/delay_line.h"
#include "sim/simulator.h"
#include "tcp/packet.h"
#include "tcp/queue_policy.h"

namespace phantom::tcp {

/// One packet's serialization time at `rate`, checked in every build
/// type (the rule of atm::OutputPort's cell time). Throws
/// std::invalid_argument unless `rate` is finite and positive and the
/// time of `bits` rounds to at least 1 ns and fits in sim::Time.
[[nodiscard]] sim::Time packet_time_at(sim::Rate rate, std::int64_t bits);

/// packet_time_at() at one rate, remembered for the last packet size
/// asked: a port sees one size nearly always (full segments one way,
/// bare headers the other), so the division runs once per size change.
class PacketTimes {
 public:
  /// Throws as packet_time_at unless a bare 40-byte header (the
  /// shortest packet the TCP stack sends) has a time at `rate`.
  explicit PacketTimes(sim::Rate rate)
      : rate_{rate},
        bits_{Packet{}.wire_bits()},
        time_{packet_time_at(rate, bits_)} {}

  /// The time of a packet of `bits`; throws as packet_time_at.
  [[nodiscard]] sim::Time of(std::int64_t bits) {
    if (bits != bits_) {
      time_ = packet_time_at(rate_, bits);
      bits_ = bits;
    }
    return time_;
  }

  [[nodiscard]] sim::Rate rate() const { return rate_; }

 private:
  sim::Rate rate_;
  std::int64_t bits_;
  sim::Time time_;
};

/// Pure-latency pipe, the packet twin of atm::Link. Optional random
/// loss for failure-injection tests. Like atm::Link it is a value type
/// whose copies share one state: the loss model and the packets in
/// transit (a sim::DelayLine whose head event points at that state, so
/// the state must outlive every run that could deliver from it, like
/// the sink).
class PacketLink {
  struct State;

 public:
  using Line = sim::DelayLine<Packet, State>;

  PacketLink(sim::Simulator& sim, sim::Time delay, PacketSink& sink,
             double loss_probability = 0.0)
      : state_{std::make_shared<State>(sim, delay, sink, loss_probability)} {}

  /// Sends a packet from a host: it departs now, and the loss model
  /// judges it at once.
  void deliver(const Packet& packet) { state_->line.send(packet); }

  [[nodiscard]] sim::Time delay() const { return state_->line.delay(); }

  /// The packets on the hop in departure order. A PacketPort feeding
  /// the link sends onto it with each packet's time, so its queue is
  /// the front of the line; the loss model then judges each packet
  /// lazily, in departure order, no later than its arrival.
  [[nodiscard]] Line& line() const { return state_->line; }

 private:
  struct State {
    State(sim::Simulator& simulator, sim::Time delay, PacketSink& receiver,
          double loss_probability)
        : line{simulator, delay, *this},
          sink{&receiver},
          sim{&simulator},
          loss{loss_probability} {}

    /// The line's departure hook; a plain line runs it at send.
    bool depart(const Packet&) {
      return !(loss > 0.0 && sim->rng().bernoulli(loss));
    }
    void arrive(const Packet& packet) { sink->receive_packet(packet); }

    Line line;
    PacketSink* sink;
    sim::Simulator* sim;
    double loss;
  };

  std::shared_ptr<State> state_;
};

/// Output-queued router port. The queue policy adjudicates every
/// arriving *data* packet (ACK and Source Quench packets bypass it: the
/// paper's mechanisms act on the data direction). `quench_tap`, when
/// set, is invoked for packets whose verdict requests a Source Quench —
/// the owning router wires it to the flow's reverse path.
///
/// The port is a departure-time port. A packet's departure is fixed
/// when the packet is accepted — its own transmission time after the
/// later of now and the previous departure — and its arrival at the far
/// end is reserved at once. The queue is the front of the link's line
/// (PacketLink::line): the packets whose departure is still ahead, plus
/// the one departing at this very instant (the tie rule, see
/// queue_length). No kernel event marks a departure.
class PacketPort {
 public:
  /// Throws std::invalid_argument unless `rate` is finite and positive
  /// and a bare 40-byte header (the shortest packet the TCP stack
  /// sends) takes from 1 ns up to what sim::Time holds; send() checks
  /// the time of each packet size it meets.
  PacketPort(sim::Simulator& sim, sim::Rate rate, std::size_t queue_limit,
             PacketLink link, std::unique_ptr<QueuePolicy> policy);

  PacketPort(const PacketPort&) = delete;
  PacketPort& operator=(const PacketPort&) = delete;

  void send(const Packet& packet);

  void set_quench_tap(std::function<void(const Packet&)> tap) {
    quench_tap_ = std::move(tap);
  }

  /// Packets accepted and not yet departed. The tie rule: a packet
  /// whose departure is now() still counts, so an arrival at that
  /// instant finds it queued. That is the order the replaced
  /// event-driven port produced wherever the upstream hop outlasts the
  /// departing packet's transmission time: the arrival's key was drawn
  /// before the completion's (DESIGN.md §11). The opposite tie, the
  /// ATM port's, is line().waiting().
  [[nodiscard]] std::size_t queue_length() const {
    return link_.line().waiting_or_departing();
  }
  [[nodiscard]] std::size_t max_queue_length() const { return max_queue_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t packets_transmitted() const {
    return accepted_ - queue_length();
  }
  [[nodiscard]] sim::Rate rate() const { return times_.rate(); }

  /// Never null; DropTailPolicy when none was supplied.
  [[nodiscard]] QueuePolicy& policy() { return *policy_; }
  [[nodiscard]] const QueuePolicy& policy() const { return *policy_; }

 private:
  /// The overflow check, then onto the line.
  void enqueue(const Packet& packet);

  PacketTimes times_;
  std::size_t queue_limit_;
  PacketLink link_;
  std::unique_ptr<QueuePolicy> policy_;
  std::function<void(const Packet&)> quench_tap_;

  std::size_t max_queue_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t accepted_ = 0;
};

}  // namespace phantom::tcp
