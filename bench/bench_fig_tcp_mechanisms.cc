// Fig. 9 / 11 / 14 / 17: the four Phantom mechanisms for TCP routers
// against the drop-tail baseline, on the §4.3 scenario (four greedy
// Reno flows, heterogeneous RTTs, one 10 Mb/s bottleneck) and on the
// three-router beat-down chain.
//
// Paper shapes:
//  * drop-tail (Fig. 14 left): RTT-biased shares, queue rides the limit;
//  * Selective Discard (Fig. 14/17 right): near-equal shares, queue
//    controlled, no modification of the TCP end systems;
//  * Selective Source Quench (Fig. 9) and EFCI (Fig. 11): fairness
//    improves through window feedback instead of drops;
//  * beat-down chain (Fig. 17): drop-tail starves the 3-hop flow;
//    Selective Discard restores its share.
#include "bench_util.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

namespace {

constexpr double kUf = tcp::kTcpUtilizationFactor;

tcp::PolicyFactory factory(const char* kind) {
  const std::string k = kind;
  if (k == "droptail") return nullptr;
  if (k == "discard") {
    return [](sim::Simulator& sim, Rate rate) {
      return std::make_unique<tcp::SelectiveDiscardPolicy>(sim, rate, kUf);
    };
  }
  if (k == "sel-red") {
    return [](sim::Simulator& sim, Rate rate) {
      return std::make_unique<tcp::SelectiveRedPolicy>(sim, rate, kUf);
    };
  }
  if (k == "quench") {
    return [](sim::Simulator& sim, Rate rate) {
      return std::make_unique<tcp::SelectiveQuenchPolicy>(sim, rate, kUf,
                                                          Time::ms(10));
    };
  }
  // "efci"
  return [](sim::Simulator& sim, Rate rate) {
    return std::make_unique<tcp::EfciMarkPolicy>(sim, rate, kUf);
  };
}

std::vector<double> run_chain(tcp::PolicyFactory policy_factory) {
  sim::Simulator sim;
  tcp::TcpNetwork net{sim};
  const auto r0 = net.add_router("r0");
  const auto r1 = net.add_router("r1");
  const auto r2 = net.add_router("r2");
  auto mk = [&] {
    tcp::TcpTrunkOptions o;
    o.queue_limit = 60;
    o.delay = Time::ms(3);
    if (policy_factory) o.policy = policy_factory;
    return o;
  };
  const auto t01 = net.add_trunk(r0, r1, mk());
  const auto t12 = net.add_trunk(r1, r2, mk());
  const auto s_end = net.add_sink_node(r2, mk());
  tcp::TcpTrunkOptions stub;
  stub.rate = Rate::mbps(100);
  stub.queue_limit = 1000;
  const auto s1 = net.add_sink_node(r1, stub);
  const auto s2 = net.add_sink_node(r2, stub);
  net.add_flow(r0, {t01, t12}, s_end);  // the 3-hop flow
  net.add_flow(r0, {t01}, s1);
  net.add_flow(r1, {t12}, s2);
  net.add_flow(r2, {}, s_end);
  net.start_all(Time::zero(), Time::ms(73));
  sim.run_until(Time::sec(3));
  std::vector<std::int64_t> base;
  for (std::size_t f = 0; f < net.num_flows(); ++f) {
    base.push_back(net.delivered_bytes(f));
  }
  sim.run_until(Time::sec(12));
  std::vector<double> mbps;
  for (std::size_t f = 0; f < net.num_flows(); ++f) {
    mbps.push_back(static_cast<double>(net.delivered_bytes(f) - base[f]) *
                   8.0 / 9.0 / 1e6);
  }
  return mbps;
}

}  // namespace

int main() {
  exp::print_header("Fig 9/11/14",
                    "TCP mechanisms vs drop-tail (4 Reno flows, 10 Mb/s)");
  exp::Table table{{"mechanism", "f0 (RTT 6ms)", "f1 (12ms)", "f2 (24ms)",
                    "f3 (48ms)", "total", "Jain", "mean queue"}};
  for (const char* kind :
       {"droptail", "discard", "sel-red", "quench", "efci"}) {
    sim::Simulator sim;
    const exp::TcpRun r = exp::TcpScenario{.policy = factory(kind)}.run(sim);
    table.add_row({kind, exp::Table::num(r.mbps[0]), exp::Table::num(r.mbps[1]),
                   exp::Table::num(r.mbps[2]), exp::Table::num(r.mbps[3]),
                   exp::Table::num(r.total), exp::Table::num(r.jain, 3),
                   exp::Table::num(r.mean_queue, 1)});
  }
  table.print();

  exp::print_header("Fig 17", "beat-down chain: 3-hop flow vs per-hop locals");
  exp::Table chain{{"mechanism", "3-hop flow", "local 1", "local 2", "local 3",
                    "3-hop / mean(local)"}};
  for (const char* kind : {"droptail", "discard"}) {
    const auto r = run_chain(factory(kind));
    const double locals = (r[1] + r[2] + r[3]) / 3.0;
    chain.add_row({kind, exp::Table::num(r[0]), exp::Table::num(r[1]),
                   exp::Table::num(r[2]), exp::Table::num(r[3]),
                   exp::Table::num(r[0] / locals, 2)});
  }
  chain.print();
  return 0;
}
