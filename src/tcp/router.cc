#include "tcp/router.h"

#include <stdexcept>

namespace phantom::tcp {

std::size_t Router::add_port(sim::Rate rate, std::size_t queue_limit,
                             PacketLink link,
                             std::unique_ptr<QueuePolicy> policy) {
  ports_.push_back(std::make_unique<PacketPort>(*sim_, rate, queue_limit, link,
                                                std::move(policy)));
  return ports_.size() - 1;
}

void Router::route_flow(int flow, std::size_t forward_port,
                        std::size_t backward_port) {
  if (forward_port >= ports_.size() || backward_port >= ports_.size()) {
    throw std::out_of_range{"route_flow: port index out of range"};
  }
  if (routes_.contains(flow)) {
    throw std::invalid_argument{"route_flow: flow already routed on " + name_};
  }
  routes_[flow] = Route{forward_port, backward_port};
  // Wire the forward port's quench requests onto this flow's backward
  // path. The tap is shared by all flows on the port; it routes by the
  // *packet's* flow id, so a single registration suffices.
  ports_[forward_port]->set_quench_tap([this](const Packet& offender) {
    const Route* route = routes_.find(offender.flow);
    if (route == nullptr) return;
    ++quenches_;
    ports_[route->backward_port]->send(Packet::source_quench(offender.flow));
  });
}

void Router::receive_packet(const Packet& packet) {
  const Route* found = routes_.find(packet.flow);
  if (found == nullptr) {
    ++unrouted_;
    return;
  }
  const Route route = *found;
  switch (packet.kind) {
    case PacketKind::kData:
      ports_[route.forward_port]->send(packet);
      break;
    case PacketKind::kAck:
    case PacketKind::kSourceQuench:
      ports_[route.backward_port]->send(packet);
      break;
  }
}

}  // namespace phantom::tcp
