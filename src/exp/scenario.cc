#include "exp/scenario.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "stats/fairness.h"

namespace phantom::exp {
namespace {

using sim::Rate;
using sim::Time;

[[nodiscard]] int parking_hops(const Scenario& spec) {
  return std::max(2, spec.sessions - 1);
}

[[nodiscard]] tcp::PacketPort& wire_router(const TcpScenario& spec,
                                           tcp::TcpNetwork& net) {
  const auto r = net.add_router("r0");
  tcp::TcpTrunkOptions opts;
  opts.rate = spec.rate;
  opts.queue_limit = spec.buffer;
  opts.policy = spec.policy;
  const auto sink = net.add_sink_node(r, opts);
  for (int i = 0; i < spec.flows; ++i) {
    net.add_flow(r, {}, sink, tcp::RenoConfig{}, Rate::mbps(100),
                 Time::ms(3 * (std::int64_t{1} << std::min(i, 4))));
  }
  return net.sink_port(sink);
}

[[nodiscard]] tcp::PacketPort& wire_chain(const TcpScenario& spec,
                                          tcp::TcpNetwork& net) {
  const auto links = static_cast<std::size_t>(std::max(2, spec.flows - 1));
  tcp::TcpTrunkOptions link;
  link.rate = spec.rate;
  link.queue_limit = spec.buffer;
  link.delay = Time::ms(3);
  link.policy = spec.policy;
  std::vector<tcp::TcpNetwork::RouterId> r;
  for (std::size_t i = 0; i < links; ++i) {
    r.push_back(net.add_router("r" + std::to_string(i)));
  }
  std::vector<tcp::TcpNetwork::TrunkId> trunks;
  for (std::size_t i = 0; i + 1 < links; ++i) {
    trunks.push_back(net.add_trunk(r[i], r[i + 1], link));
  }
  const auto end = net.add_sink_node(r.back(), link);
  tcp::TcpTrunkOptions stub;
  stub.rate = Rate::mbps(100);
  stub.queue_limit = 1000;
  std::vector<tcp::TcpNetwork::SinkNodeId> stubs;
  for (std::size_t i = 1; i < links; ++i) {
    stubs.push_back(net.add_sink_node(r[i], stub));
  }
  net.add_flow(r[0], trunks, end);  // the long flow
  for (std::size_t i = 0; i + 1 < links; ++i) {
    net.add_flow(r[i], {trunks[i]}, stubs[i]);
  }
  net.add_flow(r.back(), {}, end);
  return net.trunk_port(trunks[0]);
}

}  // namespace

topo::ControllerFactory Scenario::factory() const {
  return factory_override ? factory_override : make_factory(algorithm);
}

BuiltScenario Scenario::build(sim::Simulator& sim) const {
  return BuiltScenario{sim, *this};
}

BuiltScenario::BuiltScenario(sim::Simulator& sim, const Scenario& spec)
    : net{sim, spec.factory()}, port{build_topology(spec, net)} {}

std::string to_string(Scenario::Kind k) {
  switch (k) {
    case Scenario::Kind::kBottleneck: return "bottleneck";
    case Scenario::Kind::kParking: return "parking";
    case Scenario::Kind::kPaperLot: return "paper_lot";
  }
  return "?";
}

std::optional<Scenario::Kind> kind_from_string(const std::string& name) {
  for (const Scenario::Kind k :
       {Scenario::Kind::kBottleneck, Scenario::Kind::kParking,
        Scenario::Kind::kPaperLot}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

TopologyInfo topology_info(const Scenario& spec) {
  TopologyInfo info;
  switch (spec.kind) {
    case Scenario::Kind::kBottleneck:
      info.trunks = 0;
      info.dests = 1;
      info.controlled_dests = 1;
      info.sessions = static_cast<std::size_t>(spec.sessions);
      break;
    case Scenario::Kind::kParking: {
      const auto hops = static_cast<std::size_t>(parking_hops(spec));
      info.trunks = hops;
      info.dests = hops;  // d_end + (hops - 1) stubs; the last local reuses d_end
      info.controlled_dests = 1;
      info.sessions = 1 + hops;  // the long session + one local per hop
      break;
    }
    case Scenario::Kind::kPaperLot: {
      const auto links = static_cast<std::size_t>(parking_hops(spec));
      info.trunks = links - 1;
      info.dests = links;  // d_end + one stub per trunk
      info.controlled_dests = 1;
      info.sessions = 1 + links;  // the long session + one local per link
      break;
    }
  }
  return info;
}

atm::OutputPort& build_topology(const Scenario& spec, topo::AbrNetwork& net) {
  if (!spec.lot_rates_mbps.empty() &&
      (spec.kind != Scenario::Kind::kPaperLot ||
       spec.lot_rates_mbps.size() != topology_info(spec).trunks + 1)) {
    throw std::invalid_argument{
        "exp: lot_rates_mbps wants one rate per controlled link of a "
        "kPaperLot"};
  }
  atm::OutputPort* watched = nullptr;
  switch (spec.kind) {
    case Scenario::Kind::kBottleneck: {
      const auto sw = net.add_switch("sw");
      topo::TrunkOptions opts;
      opts.rate = Rate::mbps(spec.rate_mbps);
      const auto dest = net.add_destination(sw, opts);
      for (int i = 0; i < spec.sessions; ++i) {
        net.add_session(sw, {}, dest, spec.abr_params);
      }
      watched = &net.dest_port(dest);
      break;
    }
    case Scenario::Kind::kParking: {
      const int hops = parking_hops(spec);
      std::vector<topo::AbrNetwork::SwitchId> sw;
      for (int i = 0; i <= hops; ++i) sw.push_back(net.add_switch("s"));
      std::vector<topo::AbrNetwork::TrunkId> trunks;
      topo::TrunkOptions opts;
      opts.rate = Rate::mbps(spec.rate_mbps);
      for (int i = 0; i < hops; ++i) {
        trunks.push_back(net.add_trunk(sw[static_cast<std::size_t>(i)],
                                       sw[static_cast<std::size_t>(i + 1)],
                                       opts));
      }
      const auto d_end = net.add_destination(sw.back(), opts);
      topo::TrunkOptions stub;
      stub.controlled = false;
      stub.rate = Rate::mbps(4 * spec.rate_mbps);
      net.add_session(sw[0], trunks, d_end, spec.abr_params);  // long session
      for (int i = 0; i < hops; ++i) {                         // one local per hop
        const auto exit_sw = sw[static_cast<std::size_t>(i + 1)];
        const auto d =
            i + 1 == hops ? d_end : net.add_destination(exit_sw, stub);
        net.add_session(sw[static_cast<std::size_t>(i)],
                        {trunks[static_cast<std::size_t>(i)]}, d,
                        spec.abr_params);
      }
      watched = &net.trunk_port(trunks[0]);
      break;
    }
    case Scenario::Kind::kPaperLot: {
      const auto links = static_cast<std::size_t>(parking_hops(spec));
      const auto& rates = spec.lot_rates_mbps;
      const auto link = [&](std::size_t i) {
        topo::TrunkOptions o;
        o.rate = Rate::mbps(rates.empty() ? spec.rate_mbps : rates[i]);
        return o;
      };
      std::vector<topo::AbrNetwork::SwitchId> sw;
      for (std::size_t i = 0; i < links; ++i) {
        sw.push_back(net.add_switch("s" + std::to_string(i)));
      }
      std::vector<topo::AbrNetwork::TrunkId> trunks;
      for (std::size_t i = 0; i + 1 < links; ++i) {
        trunks.push_back(net.add_trunk(sw[i], sw[i + 1], link(i)));
      }
      const auto d_end = net.add_destination(sw.back(), link(links - 1));
      topo::TrunkOptions stub;
      stub.controlled = false;
      stub.rate = Rate::mbps(622);
      std::vector<topo::AbrNetwork::DestId> stubs;
      for (std::size_t i = 1; i < links; ++i) {
        stubs.push_back(net.add_destination(sw[i], stub));
      }
      net.add_session(sw[0], trunks, d_end, spec.abr_params);  // long session
      for (std::size_t i = 0; i + 1 < links; ++i) {
        net.add_session(sw[i], {trunks[i]}, stubs[i], spec.abr_params);
      }
      net.add_session(sw.back(), {}, d_end, spec.abr_params);
      watched = &net.trunk_port(trunks[0]);
      break;
    }
  }
  if (watched == nullptr) throw std::logic_error{"exp: bad scenario kind"};
  // Armed after the sessions exist so enable_overload_protection
  // grandfathers them (MCRs booked without being re-judged).
  if (spec.overload) net.enable_overload_protection(spec.overload_options);
  return *watched;
}

BuiltTcpScenario TcpScenario::build(sim::Simulator& sim) const {
  return BuiltTcpScenario{sim, *this};
}

BuiltTcpScenario::BuiltTcpScenario(sim::Simulator& sim,
                                   const TcpScenario& spec)
    : net{sim},
      port{spec.kind == TcpScenario::Kind::kChain ? wire_chain(spec, net)
                                                  : wire_router(spec, net)} {
  net.start_all(Time::zero(), Time::ms(73));
}

TcpRun TcpScenario::run(sim::Simulator& sim) const {
  BuiltTcpScenario b = build(sim);
  sim.run_until(settle);
  std::vector<std::int64_t> base;
  for (std::size_t f = 0; f < b.net.num_flows(); ++f) {
    base.push_back(b.net.delivered_bytes(f));
  }
  TcpRun out;
  // Sample the queue every 5 ms through the measurement window; the
  // last sample files no successor, so nothing outlives the run.
  const Time period = Time::ms(5);
  std::size_t samples = 0;
  std::function<void()> sample = [&] {
    out.mean_queue += static_cast<double>(b.port.queue_length());
    ++samples;
    if (sim.now() + period <= horizon) sim.schedule(period, sample);
  };
  sim.schedule(Time::zero(), sample);
  sim.run_until(horizon);
  out.mean_queue /= static_cast<double>(samples);
  for (std::size_t f = 0; f < b.net.num_flows(); ++f) {
    out.mbps.push_back(static_cast<double>(b.net.delivered_bytes(f) - base[f]) *
                       8.0 / (horizon - settle).seconds() / 1e6);
    out.total += out.mbps.back();
  }
  out.jain = stats::jain_index(out.mbps);
  out.max_queue = b.port.max_queue_length();
  out.drops = b.port.packets_dropped();
  return out;
}

}  // namespace phantom::exp
