// IP router: per-flow forward/backward routing over packet ports.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/id_table.h"
#include "tcp/packet.h"
#include "tcp/packet_port.h"

namespace phantom::tcp {

/// A router is a set of output ports plus a flow routing table. Data
/// packets of a flow exit via the flow's forward port; ACK and Source
/// Quench packets exit via its backward port. A Source Quench requested
/// by a forward port's policy is materialized here and injected onto the
/// flow's backward path toward the source.
class Router final : public PacketSink {
 public:
  explicit Router(sim::Simulator& sim, std::string name = "router")
      : sim_{&sim}, name_{std::move(name)} {
    (void)sim_;
  }

  /// Adds an output port; returns its index.
  std::size_t add_port(sim::Rate rate, std::size_t queue_limit,
                       PacketLink link, std::unique_ptr<QueuePolicy> policy);

  /// Routes a flow. A flow may be routed at most once per router.
  /// Throws std::out_of_range for a port index out of range or a
  /// negative flow id.
  void route_flow(int flow, std::size_t forward_port,
                  std::size_t backward_port);

  void receive_packet(const Packet& packet) override;

  [[nodiscard]] PacketPort& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] const PacketPort& port(std::size_t i) const {
    return *ports_.at(i);
  }
  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t unrouted_packets() const { return unrouted_; }
  [[nodiscard]] std::uint64_t quenches_injected() const { return quenches_; }

 private:
  struct Route {
    std::size_t forward_port;
    std::size_t backward_port;
  };

  sim::Simulator* sim_;
  std::string name_;
  std::vector<std::unique_ptr<PacketPort>> ports_;
  sim::IdTable<Route> routes_;  // by flow id (dense, from TcpNetwork)
  std::uint64_t unrouted_ = 0;
  std::uint64_t quenches_ = 0;
};

}  // namespace phantom::tcp
