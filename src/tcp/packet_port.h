// Router/host output port for packets: bounded FIFO + transmitter +
// queue policy, mirroring atm::OutputPort at packet granularity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/delay_line.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "tcp/packet.h"
#include "tcp/queue_policy.h"

namespace phantom::tcp {

/// Pure-latency pipe, the packet twin of atm::Link. Optional random
/// loss for failure-injection tests. Like atm::Link it is a value type
/// whose copies share one state: the loss counter and the packets in
/// transit (a sim::DelayLine whose head event points at that state, so
/// the state must outlive every run that could deliver from it, like
/// the sink).
class PacketLink {
 public:
  PacketLink(sim::Simulator& sim, sim::Time delay, PacketSink& sink,
             double loss_probability = 0.0)
      : state_{std::make_shared<State>(sim, delay, sink, loss_probability)} {}

  void deliver(const Packet& packet) { state_->line.send(packet); }

  [[nodiscard]] sim::Time delay() const { return state_->line.delay(); }
  [[nodiscard]] std::uint64_t packets_lost() const { return state_->lost; }

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
      if (loss > 0.0 && sim->rng().bernoulli(loss)) {
        ++lost;
        return false;
      }
      return true;
    }
    void arrive(const Packet& packet) { sink->receive_packet(packet); }

    sim::DelayLine<Packet, State> line;
    PacketSink* sink;
    sim::Simulator* sim;
    double loss;
    std::uint64_t lost = 0;
  };

  std::shared_ptr<State> state_;
};

/// Output-queued packet port. The queue policy adjudicates every
/// arriving *data* packet (ACK and Source Quench packets bypass it: the
/// paper's mechanisms act on the data direction). `quench_tap`, when
/// set, is invoked for packets whose verdict requests a Source Quench —
/// the owning router wires it to the flow's reverse path.
class PacketPort {
 public:
  PacketPort(sim::Simulator& sim, sim::Rate rate, std::size_t queue_limit,
             PacketLink link, std::unique_ptr<QueuePolicy> policy);

  PacketPort(const PacketPort&) = delete;
  PacketPort& operator=(const PacketPort&) = delete;

  void send(Packet packet);

  void set_quench_tap(std::function<void(const Packet&)> tap) {
    quench_tap_ = std::move(tap);
  }

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::size_t max_queue_length() const { return max_queue_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t packets_transmitted() const {
    return transmitted_;
  }
  [[nodiscard]] sim::Rate rate() const { return rate_; }

  /// Never null; DropTailPolicy when none was supplied.
  [[nodiscard]] QueuePolicy& policy() { return *policy_; }
  [[nodiscard]] const QueuePolicy& policy() const { return *policy_; }

 private:
  void start_transmission();
  void on_transmission_complete();

  sim::Simulator* sim_;
  sim::Rate rate_;
  std::size_t queue_limit_;
  PacketLink link_;
  std::unique_ptr<QueuePolicy> policy_;
  std::function<void(const Packet&)> quench_tap_;

  sim::Ring<Packet> queue_;
  bool transmitting_ = false;
  std::size_t max_queue_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t transmitted_ = 0;
};

}  // namespace phantom::tcp
