// Departure-time router ports against the event-driven port they
// replaced. The reference below is that port's logic: a FIFO, a
// completion event per packet that hands the packet to the link, and
// a link that files the packet's arrival when it is handed over. One
// random script drives both models, and every observable must agree:
// each packet's fate and arrival instant, each queue length the policy
// is handed, each overflow, and the port counters at random instants.
//
// Unlike the ATM test, the script puts arrivals *on* departure
// instants. A byte takes 1 us and every packet is a whole number of
// 40-byte blocks, so departures fall on a 40 us grid, and so does every
// script instant. Each script event is filed before the run starts,
// which is the reference's order whenever the upstream hop outlasts a
// packet time: an arrival at a departure instant runs before the
// completion and finds the departing packet queued. That is the tie
// rule PacketPort::queue_length keeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/simulator.h"
#include "tcp/packet_port.h"
#include "tcp/tcp_network.h"

namespace phantom::tcp {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

const Rate kRate = Rate::mbps(8);  // one byte per microsecond
constexpr std::int64_t kBlockUs = 40;

/// Every script packet carries its index as its flow id; a Source
/// Quench carries its offender's.
int id_of(const Packet& p) { return p.flow; }

/// What one port's policy was told, in order.
struct Calls {
  std::vector<std::pair<int, std::size_t>> arrivals;  // id, queue_len
  std::vector<int> overflows;
};

/// Drops an over-rate packet once the queue is deep, marks EFCI on an
/// odd queue length and asks for a quench at three or more: every
/// verdict turns on the queue length the port hands over.
class SpyPolicy final : public QueuePolicy {
 public:
  explicit SpyPolicy(Calls& calls) : calls_{&calls} {}
  Verdict on_arrival(const Packet& p, std::size_t queue_len,
                     std::size_t) override {
    calls_->arrivals.emplace_back(id_of(p), queue_len);
    Verdict v;
    v.drop = queue_len >= 5 && p.cr > Rate::mbps(1);
    v.mark_efci = queue_len % 2 == 1;
    v.send_quench = queue_len >= 3;
    return v;
  }
  void on_overflow(const Packet& p) override {
    calls_->overflows.push_back(id_of(p));
  }
  [[nodiscard]] std::string name() const override { return "spy"; }

 private:
  Calls* calls_;
};

struct Arrival {
  int id;
  PacketKind kind;
  Time at;
  bool efci;
  friend bool operator==(const Arrival&, const Arrival&) = default;
};

class Sink final : public PacketSink {
 public:
  explicit Sink(Simulator& sim) : sim_{&sim} {}
  void receive_packet(const Packet& p) override {
    arrivals.push_back(Arrival{id_of(p), p.kind, sim_->now(), p.efci});
  }
  std::vector<Arrival> arrivals;

 private:
  Simulator* sim_;
};

// ----------------------------------------------------- reference model

/// The replaced port: a FIFO whose head is on the wire, one completion
/// event per packet, and a plain link that files each arrival when the
/// completion hands the packet over.
class RefPort {
 public:
  RefPort(Simulator& sim, std::size_t limit, Time delay, PacketSink& sink,
          std::unique_ptr<QueuePolicy> policy)
      : sim_{&sim},
        limit_{limit},
        delay_{delay},
        sink_{&sink},
        policy_{std::move(policy)} {}

  void set_quench_tap(std::function<void(const Packet&)> tap) {
    tap_ = std::move(tap);
  }

  void send(Packet packet) {
    if (transmitting_ && done_at_ == sim_->now()) ++ties;
    if (packet.kind == PacketKind::kData) {
      const Verdict v = policy_->on_arrival(packet, queue_.size(), limit_);
      if (v.send_quench && tap_) tap_(packet);
      if (v.drop) {
        ++dropped;
        return;
      }
      if (v.mark_efci) packet.efci = true;
    }
    if (queue_.size() >= limit_) {
      ++dropped;
      policy_->on_overflow(packet);
      return;
    }
    queue_.push_back(packet);
    max_queue = std::max(max_queue, queue_.size());
    if (!transmitting_) start();
  }

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }

  std::uint64_t dropped = 0;
  std::uint64_t transmitted = 0;
  std::size_t max_queue = 0;
  /// Arrivals that found a packet departing at their own instant.
  std::uint64_t ties = 0;

 private:
  void start() {
    transmitting_ = true;
    const Time t = kRate.transmission_time(queue_.front().wire_bits());
    done_at_ = sim_->now() + t;
    sim_->schedule(t, [this] { complete(); });
  }

  void complete() {
    const Packet p = queue_.front();
    queue_.pop_front();
    ++transmitted;
    sim_->schedule(delay_, [this, p] { sink_->receive_packet(p); });
    if (!queue_.empty()) {
      start();
    } else {
      transmitting_ = false;
    }
  }

  Simulator* sim_;
  std::size_t limit_;
  Time delay_;
  PacketSink* sink_;
  std::unique_ptr<QueuePolicy> policy_;
  std::function<void(const Packet&)> tap_;
  std::deque<Packet> queue_;
  bool transmitting_ = false;
  Time done_at_;
};

// ------------------------------------------------------------- script

/// Port 0 runs the spy policy and quenches onto port 1, the drop-tail
/// reverse port that also carries ACKs and quenches of its own.
constexpr int kPorts = 2;

struct Action {
  enum Kind { kPacket, kObserve };
  Kind kind = kPacket;
  Time at;
  int port = 0;
  Packet packet;
};

struct Script {
  std::size_t limit[kPorts] = {};
  Time delay[kPorts];
  std::vector<Action> actions;
};

Script make_script(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
  };
  constexpr std::int64_t kSlots = 400;  // of 40 us each
  auto instant = [&](std::int64_t slot) {
    return Time::us(slot * kBlockUs);
  };

  Script s;
  for (int p = 0; p < kPorts; ++p) {
    s.limit[p] = static_cast<std::size_t>(uniform(2, 12));
    s.delay[p] = Time::us(kBlockUs * uniform(0, 30));
  }
  // A calm background and a hot window that fills both queues.
  const std::int64_t hot = uniform(50, 300);
  for (int i = 0; i < 500; ++i) {
    Action a;
    a.at = instant(uniform(0, 1) == 0 ? uniform(0, kSlots)
                                      : uniform(hot, hot + 60));
    a.port = static_cast<int>(uniform(0, 3) == 0);
    const std::int64_t kind = uniform(0, 5);
    if (a.port == 0 || kind < 2) {
      // Payloads of 1, 4 or 12 blocks after the 40-byte header.
      const std::int64_t blocks[] = {1, 4, 12};
      a.packet = Packet::data(0, 0, kBlockUs * blocks[uniform(0, 2)]);
      a.packet.cr = Rate::kbps(static_cast<double>(uniform(100, 3000)));
    } else if (kind < 5) {
      a.packet = Packet::make_ack(0, 0);
    } else {
      a.packet = Packet::source_quench(0);
    }
    s.actions.push_back(a);
  }
  for (int i = 0; i < 80; ++i) {
    Action a;
    a.kind = Action::kObserve;
    a.at = instant(uniform(0, kSlots + 60));
    s.actions.push_back(a);
  }
  std::stable_sort(s.actions.begin(), s.actions.end(),
                   [](const Action& a, const Action& b) { return a.at < b.at; });
  for (std::size_t i = 0; i < s.actions.size(); ++i) {
    s.actions[i].packet.flow = static_cast<int>(i);
  }
  return s;
}

// ------------------------------------------------------ observations

struct PortView {
  std::size_t queue = 0;
  std::uint64_t dropped = 0;
  std::uint64_t transmitted = 0;
  std::size_t max_queue = 0;
  friend bool operator==(const PortView&, const PortView&) = default;
};

using View = std::vector<PortView>;

struct Outcome {
  std::vector<View> after_packet;  // after each script packet
  std::vector<View> observed;      // at each observation instant
  Calls calls;
  std::vector<Arrival> arrivals[kPorts];
  std::uint64_t ties = 0;
};

/// Runs `s` on ports of type P, built by `make`.
template <typename P, typename Make, typename ViewOf>
Outcome run(const Script& s, Make make, ViewOf view_of) {
  Outcome out;
  Simulator sim;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<std::unique_ptr<P>> ports;
  for (int p = 0; p < kPorts; ++p) {
    sinks.push_back(std::make_unique<Sink>(sim));
    std::unique_ptr<QueuePolicy> policy;
    if (p == 0) policy = std::make_unique<SpyPolicy>(out.calls);
    ports.push_back(make(sim, s.limit[p], s.delay[p], *sinks[p],
                         std::move(policy)));
  }
  ports[0]->set_quench_tap([&](const Packet& offender) {
    ports[1]->send(Packet::source_quench(offender.flow));
  });
  auto view = [&] {
    View v;
    for (const auto& port : ports) v.push_back(view_of(*port));
    return v;
  };
  for (const Action& a : s.actions) {
    sim.schedule_at(a.at, [&, a] {
      if (a.kind == Action::kObserve) {
        out.observed.push_back(view());
        return;
      }
      ports[a.port]->send(a.packet);
      out.after_packet.push_back(view());
    });
  }
  sim.run();
  out.observed.push_back(view());
  for (int p = 0; p < kPorts; ++p) out.arrivals[p] = sinks[p]->arrivals;
  if constexpr (std::is_same_v<P, RefPort>) {
    for (const auto& port : ports) out.ties += port->ties;
  }
  return out;
}

Outcome run_reference(const Script& s) {
  return run<RefPort>(
      s,
      [](Simulator& sim, std::size_t limit, Time delay, Sink& sink,
         std::unique_ptr<QueuePolicy> policy) {
        if (!policy) policy = std::make_unique<DropTailPolicy>();
        return std::make_unique<RefPort>(sim, limit, delay, sink,
                                         std::move(policy));
      },
      [](const RefPort& p) {
        return PortView{p.queue_length(), p.dropped, p.transmitted,
                        p.max_queue};
      });
}

Outcome run_departure_ports(const Script& s) {
  return run<PacketPort>(
      s,
      [](Simulator& sim, std::size_t limit, Time delay, Sink& sink,
         std::unique_ptr<QueuePolicy> policy) {
        return std::make_unique<PacketPort>(sim, kRate, limit,
                                            PacketLink{sim, delay, sink},
                                            std::move(policy));
      },
      [](const PacketPort& p) {
        return PortView{p.queue_length(), p.packets_dropped(),
                        p.packets_transmitted(), p.max_queue_length()};
      });
}

TEST(PacketDeparturePortDifferentialTest,
     AgreesWithEventDrivenPortOnRandomScripts) {
  std::uint64_t ties = 0, drops = 0, overflows = 0, quenches = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("script seed " + std::to_string(seed));
    const Script script = make_script(seed);
    const Outcome ref = run_reference(script);
    const Outcome dep = run_departure_ports(script);

    EXPECT_EQ(ref.calls.arrivals, dep.calls.arrivals)
        << "queue lengths handed to the policy";
    EXPECT_EQ(ref.calls.overflows, dep.calls.overflows);
    ASSERT_EQ(ref.after_packet.size(), dep.after_packet.size());
    for (std::size_t i = 0; i < ref.after_packet.size(); ++i) {
      ASSERT_TRUE(ref.after_packet[i] == dep.after_packet[i])
          << "counters diverge after script packet " << i;
    }
    ASSERT_EQ(ref.observed.size(), dep.observed.size());
    for (std::size_t i = 0; i < ref.observed.size(); ++i) {
      ASSERT_TRUE(ref.observed[i] == dep.observed[i])
          << "counters diverge at observation " << i;
    }
    for (int p = 0; p < kPorts; ++p) {
      SCOPED_TRACE("port " + std::to_string(p));
      EXPECT_TRUE(ref.arrivals[p] == dep.arrivals[p])
          << "fates or arrival instants";
      for (const Arrival& a : ref.arrivals[p]) {
        quenches += a.kind == PacketKind::kSourceQuench;
      }
      drops += ref.observed.back()[static_cast<std::size_t>(p)].dropped;
    }
    ties += ref.ties;
    overflows += ref.calls.overflows.size();
  }
  // The scripts reach every path they are meant to compare.
  EXPECT_GT(ties, 5000u) << "arrivals on a departure instant";
  EXPECT_GT(drops, 5000u);
  EXPECT_GT(overflows, 1000u);
  EXPECT_GT(quenches, 2000u);
}

// ------------------------------------------------------- tie border

// The tie rule at an exact border, one nanosecond wide (in the manner
// of a RED test whose thresholds sit one byte apart): a packet whose
// departure equals now() is still queued. At d - 1 ns and at d the
// port holds it; at d + 1 ns it has left. An arrival at d is handed
// the same count.
TEST(PacketDeparturePortBorderTest, PacketLeavesJustAfterItsDeparture) {
  Simulator sim;
  Sink sink{sim};
  Calls calls;
  PacketPort port{sim, kRate, 10, PacketLink{sim, Time::ms(1), sink},
                  std::make_unique<SpyPolicy>(calls)};
  const Packet data = Packet::data(0, 0, 512);
  const Time d1 = kRate.transmission_time(data.wire_bits());
  const Time d2 = d1 * 2;
  const Time ns = Time::ns(1);
  port.send(data);
  port.send(data);
  auto at = [&](Time t, std::size_t queue, std::uint64_t transmitted) {
    sim.run_until(t);
    EXPECT_EQ(port.queue_length(), queue) << "at " << t.nanoseconds() << " ns";
    EXPECT_EQ(port.packets_transmitted(), transmitted)
        << "at " << t.nanoseconds() << " ns";
  };
  at(d1 - ns, 2, 0);
  at(d1, 2, 0);  // departing at d1, still queued
  at(d1 + ns, 1, 1);
  at(d2, 1, 1);
  port.send(data);  // an arrival at d2 finds the departing packet queued
  ASSERT_EQ(calls.arrivals.size(), 3u);
  EXPECT_EQ(calls.arrivals.back().second, 1u);
  at(d2, 2, 1);
  at(d2 + ns, 1, 2);
  // The third packet started at d2, behind the second, with no gap.
  at(d2 + d1, 1, 2);
  at(d2 + d1 + ns, 0, 3);
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[2].at, d2 + d1 + Time::ms(1));
}

// ----------------------------------------------------- rate refusal

TEST(PacketPortRateTest, RefusesUnrepresentableRates) {
  Simulator sim;
  Sink sink{sim};
  auto build = [&](Rate rate) {
    return PacketPort{sim, rate, 8, PacketLink{sim, Time::zero(), sink},
                      nullptr};
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bps : {0.0, -1.0, std::nan(""), inf, 1e-294, 1e30}) {
    SCOPED_TRACE(bps);
    EXPECT_THROW(build(Rate::bps(bps)), std::invalid_argument);
  }
  // A bare header fits in sim::Time at 1e-7 b/s; a 552-byte packet
  // does not, and send() refuses it.
  PacketPort slow{sim, Rate::bps(1e-7), 8, PacketLink{sim, Time::zero(), sink},
                  nullptr};
  EXPECT_THROW(slow.send(Packet::data(0, 0, 512)), std::invalid_argument);
  EXPECT_EQ(slow.queue_length(), 0u);
  // The host access serializers of a TcpNetwork refuse the same rates.
  TcpNetwork net{sim};
  const auto r = net.add_router("r0");
  const auto s = net.add_sink_node(r);
  EXPECT_THROW(net.add_flow(r, {}, s, RenoConfig{}, Rate::bps(1e-294)),
               std::invalid_argument);
}

TEST(PacketPortRateTest, PacketTimeIsTheRatesTransmissionTime) {
  for (const double mbps : {1.5, 8.0, 10.0, 155.52, 1e5}) {
    const Rate rate = Rate::mbps(mbps);
    for (const std::int64_t bits : {320, 4416, 12'000}) {
      EXPECT_EQ(packet_time_at(rate, bits), rate.transmission_time(bits));
    }
  }
  EXPECT_EQ(packet_time_at(Rate::bps(320e9), 320), Time::ns(1));
  EXPECT_THROW((void)packet_time_at(Rate::bps(1e12), 320),
               std::invalid_argument);
}

}  // namespace
}  // namespace phantom::tcp
