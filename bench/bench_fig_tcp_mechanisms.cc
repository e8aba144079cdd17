// Fig. 9 / 11 / 14 / 17: the four Phantom mechanisms for TCP routers
// against the drop-tail baseline, on the §4.3 scenario (four greedy
// Reno flows, heterogeneous RTTs, one 10 Mb/s bottleneck) and on the
// three-router beat-down chain (exp::TcpScenario's kRouter and kChain).
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
    sim::Simulator sim;
    const auto r = exp::TcpScenario{.kind = exp::TcpScenario::Kind::kChain,
                                    .policy = factory(kind)}
                       .run(sim)
                       .mbps;
    const double locals = (r[1] + r[2] + r[3]) / 3.0;
    chain.add_row({kind, exp::Table::num(r[0]), exp::Table::num(r[1]),
                   exp::Table::num(r[2]), exp::Table::num(r[3]),
                   exp::Table::num(r[0] / locals, 2)});
  }
  chain.print();
  return 0;
}
