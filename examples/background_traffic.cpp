// Example: ABR means *available* bit rate — Phantom shares what the
// guaranteed-traffic classes leave behind.
//
// A 150 Mb/s link carries a 50 Mb/s constant-bit-rate stream (think
// CBR video) that ignores flow control entirely, plus three greedy ABR
// sessions. Phantom measures the residual bandwidth, so the ABR
// sessions converge to (u*C - 50)/(3+1) each without any explicit
// knowledge of the CBR stream. Halfway through, the CBR stream stops
// and the ABR sessions absorb the released bandwidth.
#include <cstdio>

#include "exp/probes.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "sim/simulator.h"

int main() {
  using namespace phantom;
  using sim::Rate;
  using sim::Time;

  sim::Simulator sim;
  auto [net, port] = exp::Scenario{.sessions = 3}.build(sim);
  // The bottleneck's switch and destination are the network's first.
  const auto cbr = net.add_cbr_session(0, {}, 0, Rate::mbps(50));

  exp::GoodputProbe probe{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.schedule_at(Time::ms(400), [&] { net.cbr_source(cbr).stop(); });

  exp::print_header("background-traffic",
                    "3 ABR sessions + 50 Mb/s CBR on one 150 Mb/s link");

  // Phase 1: CBR active.
  sim.run_until(Time::ms(300));
  probe.mark();
  sim.run_until(Time::ms(390));
  const auto with_cbr = probe.rates_mbps();
  // Phase 2: CBR gone.
  sim.run_until(Time::ms(650));
  probe.mark();
  sim.run_until(Time::ms(800));
  const auto without_cbr = probe.rates_mbps();

  exp::Table table{{"ABR session", "with CBR (Mb/s)", "after CBR stops"}};
  for (std::size_t s = 0; s < 3; ++s) {
    table.add_row({std::to_string(s), exp::Table::num(with_cbr[s]),
                   exp::Table::num(without_cbr[s])});
  }
  table.print();
  std::printf(
      "\nexpected: (0.95*150-50)/4 = 23.1 with CBR, 0.95*150/4 = 35.6 after\n"
      "(the imaginary phantom session always takes one share).\n"
      "CBR cells sent: %llu, port drops: %llu\n",
      static_cast<unsigned long long>(net.cbr_source(cbr).cells_sent()),
      static_cast<unsigned long long>(port.cells_dropped()));
  return 0;
}
