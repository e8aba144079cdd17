// Fig. 1-3 (reconstructed numbering): Phantom convergence on a single
// 150 Mb/s bottleneck — MACR, sessions' allowed rate, and queue length
// over time, for several session counts; plus a convergence-time table.
//
// Paper shape to reproduce: MACR overshoots toward u*C while sources
// ramp, then settles at u*C/(n+1) within a few tens of ms; sessions'
// ACR tracks it; the queue spikes transiently and drains to zero.
#include "bench_util.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

int main() {
  exp::print_header("Fig 1-3", "Phantom convergence, n greedy sessions");

  exp::Table table{{"sessions", "goodput/session (Mb/s)", "ideal u*C/(n+1)",
                    "Jain", "MACR settle (ms)", "max queue (cells)",
                    "steady queue"}};

  for (const int n : {2, 5, 10}) {
    sim::Simulator sim;
    auto b = exp::Scenario{.sessions = n}.build(sim);
    sim::Trace macr;
    sim::Trace acr0;
    b.port.controller().set_rate_trace(&macr, sim.now());
    b.net.source(0).set_acr_trace(&acr0);
    exp::QueueSampler queue{sim, b.port};
    exp::GoodputProbe probe{sim, b.net};
    b.net.start_all(Time::zero(), Time::zero());
    sim.run_until(Time::ms(300));
    probe.mark();
    sim.run_until(Time::ms(400));

    const double ideal = 0.95 * 150.0 / (n + 1);
    const auto settle =
        stats::convergence_time(macr.samples(), ideal * 1e6, 0.10);
    const auto rates = probe.rates_mbps();
    double mean = 0;
    for (const double r : rates) mean += r;
    mean /= static_cast<double>(rates.size());

    table.add_row({std::to_string(n), exp::Table::num(mean),
                   exp::Table::num(ideal),
                   exp::Table::num(stats::jain_index(rates), 3),
                   exp::Table::num(settle.milliseconds(), 1),
                   std::to_string(b.port.max_queue_length()),
                   std::to_string(b.port.queue_length())});

    if (n == 2) {  // the figure's curves, for the base case
      exp::print_series("MACR, n=2 (Mb/s)", macr.samples(), 1e-6, 20);
      exp::print_series("session 0 allowed rate (Mb/s)", acr0.samples(), 1e-6,
                        20);
      exp::print_series("queue length (cells)", queue.trace().samples(), 1.0,
                        20);
    }
  }
  table.print();
  return 0;
}
