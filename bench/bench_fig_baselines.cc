// Fig. 19-22: the three ATM Forum baselines in Phantom's scenarios.
//
//  * Fig 19-20 (EPRCA): MACR oscillates around the mean CCR; the queue
//    bounces between the congestion thresholds; in the very-congested
//    state every session is beaten down indiscriminately.
//  * Fig 21 (APRC): queue-growth congestion detection reacts earlier,
//    but the 300-cell very-congested threshold is still exceeded in
//    stress scenarios.
//  * Fig 22 (CAPC, on/off scenario of Fig 4): slower convergence than
//    Phantom with a smaller queue during that time — Phantom's larger
//    transient queue "stems from the faster reaction of Phantom".
#include "bench_util.h"

using namespace phantom;
using namespace phantom::bench;
using sim::Time;

namespace {

void greedy_figure(exp::Algorithm alg, const char* fig) {
  sim::Simulator sim;
  AbrBottleneck b{sim, alg, 5};
  sim::Trace fair_share;
  b.port().controller().set_rate_trace(&fair_share, sim.now());
  exp::QueueSampler queue{sim, b.port()};
  exp::GoodputProbe probe{sim, b.net};
  b.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(300));
  probe.mark();
  sim.run_until(Time::ms(400));

  std::printf("\n--- %s: %s, 5 greedy sessions ---\n", fig,
              exp::to_string(alg).c_str());
  exp::print_series("fair-share estimate (Mb/s)", fair_share.samples(), 1e-6,
                    20);
  exp::print_series("queue (cells)", queue.trace().samples(), 1.0, 20);
  const auto rates = probe.rates_mbps();
  double mean = 0;
  for (const double r : rates) mean += r;
  std::printf("goodput/session %.2f Mb/s, Jain %.3f, max queue %zu\n",
              mean / static_cast<double>(rates.size()),
              stats::jain_index(rates), b.port().max_queue_length());
}

struct OnOffOutcome {
  double early_goodput = 0.0;  // Mb/s through the first 30 ms
  std::size_t max_queue = 0;
};

OnOffOutcome onoff_figure(exp::Algorithm alg) {
  sim::Simulator sim;
  AbrBottleneck b{sim, alg, 3};
  exp::GoodputProbe probe{sim, b.net};
  b.net.start_all(Time::zero(), Time::zero());
  topo::OnOffDriver::Options opt;
  opt.on_period = Time::ms(60);
  opt.off_period = Time::ms(60);
  opt.first_toggle = Time::ms(60);
  topo::OnOffDriver driver{sim, b.net.source(2), opt};
  probe.mark();
  sim.run_until(Time::ms(30));
  OnOffOutcome out;
  out.early_goodput = probe.total_mbps();
  sim.run_until(Time::ms(400));
  out.max_queue = b.port().max_queue_length();
  return out;
}

}  // namespace

int main() {
  exp::print_header("Fig 19-22", "EPRCA / APRC / CAPC in Phantom's scenarios");
  greedy_figure(exp::Algorithm::kEprca, "Fig 19-20");
  greedy_figure(exp::Algorithm::kAprc, "Fig 21");
  greedy_figure(exp::Algorithm::kCapc, "Fig 22 (greedy part)");

  std::printf("\n--- Fig 22: CAPC vs Phantom on the Fig 4 on/off scenario ---\n");
  exp::Table table{
      {"algorithm", "goodput in first 30 ms (Mb/s)", "max queue (cells)"}};
  for (const auto alg : {exp::Algorithm::kPhantom, exp::Algorithm::kCapc}) {
    const auto r = onoff_figure(alg);
    table.add_row({exp::to_string(alg), exp::Table::num(r.early_goodput),
                   std::to_string(r.max_queue)});
  }
  table.print();
  std::printf(
      "\nexpected shape: CAPC converges more slowly (lower early goodput)\n"
      "while its queue stays smaller; Phantom's faster reaction costs a\n"
      "larger transient queue — the trade-off the paper reports.\n");
  return 0;
}
