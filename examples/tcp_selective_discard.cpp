// TCP example: Phantom's Selective Discard in an IP router.
//
// Four greedy TCP Reno connections with very different RTTs share one
// 10 Mb/s drop-tail router. Plain drop-tail is strongly biased by RTT;
// adding Phantom's Selective Discard (router compares each packet's
// stamped rate CR against utilization_factor * MACR and polices the
// over-rate flows when the queue builds) equalizes the goodputs without
// modifying TCP's window machinery.
#include <cstdio>
#include <utility>

#include "exp/report.h"
#include "exp/scenario.h"
#include "tcp/phantom_policies.h"

using namespace phantom;
using sim::Rate;

namespace {

exp::TcpRun run(tcp::PolicyFactory policy) {
  sim::Simulator sim;
  return exp::TcpScenario{.policy = std::move(policy)}.run(sim);
}

}  // namespace

int main() {
  const exp::TcpRun droptail = run(nullptr);
  const exp::TcpRun discard = run([](sim::Simulator& sim, Rate rate) {
    return std::make_unique<tcp::SelectiveDiscardPolicy>(sim, rate, 10.0);
  });

  exp::print_header("tcp-selective-discard",
                    "4 Reno flows (RTT 6..48 ms), 10 Mb/s bottleneck");
  exp::Table table{{"flow (2*access delay)", "drop-tail (Mb/s)",
                    "selective discard (Mb/s)"}};
  const char* kNames[] = {"6 ms", "12 ms", "24 ms", "48 ms"};
  for (std::size_t f = 0; f < droptail.mbps.size(); ++f) {
    table.add_row({kNames[f], exp::Table::num(droptail.mbps[f]),
                   exp::Table::num(discard.mbps[f])});
  }
  table.add_row({"total", exp::Table::num(droptail.total),
                 exp::Table::num(discard.total)});
  table.add_row({"Jain index", exp::Table::num(droptail.jain, 3),
                 exp::Table::num(discard.jain, 3)});
  table.print();
  std::printf(
      "\nSelective Discard trades a little utilization for RTT-independent\n"
      "fairness, with no change to the end hosts' TCP implementation.\n");
  return 0;
}
