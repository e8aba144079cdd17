// Fig. 5-6 (reconstructed numbering): fairness under heterogeneous
// round-trip times. Four sessions share one 150 Mb/s link with access
// delays spanning three orders of magnitude.
//
// Paper shape: explicit-rate feedback makes the allocation independent
// of RTT — all sessions converge to u*C/(n+1); only the convergence
// *speed* of the long-RTT session differs.
#include "bench_util.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

int main() {
  exp::print_header("Fig 5-6", "RTT-independence of the allocation");

  sim::Simulator sim;
  topo::AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  const Time delays[] = {Time::us(2), Time::us(20), Time::us(200),
                         Time::ms(2)};
  for (const Time d : delays) net.add_session(sw, {}, dest, {}, d);

  exp::GoodputProbe probe{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  probe.mark();
  sim.run_until(Time::ms(600));
  const auto rates = probe.rates_mbps();

  exp::Table table{{"session", "access delay", "RTT (approx)",
                    "goodput (Mb/s)", "ideal"}};
  const char* rtts[] = {"~8 us", "~80 us", "~0.8 ms", "~8 ms"};
  for (std::size_t s = 0; s < rates.size(); ++s) {
    table.add_row({std::to_string(s), delays[s].to_string(), rtts[s],
                   exp::Table::num(rates[s]), exp::Table::num(0.95 * 150 / 5)});
  }
  table.print();
  std::printf("\nJain index: %.4f (1.0 = RTT plays no role)\n",
              stats::jain_index(rates));
  return 0;
}
