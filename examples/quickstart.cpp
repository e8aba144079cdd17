// Quickstart: the Phantom algorithm on a single bottleneck link.
//
// Three greedy ABR sessions share one 150 Mb/s link whose output port
// runs a PhantomController. The controller's MACR (the imaginary
// session's rate) converges to u*C/(n+1) = 0.95*150/4 ≈ 35.6 Mb/s, and
// every session's goodput converges to the same value — the max-min
// fair share with one phantom session added.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "exp/probes.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "sim/simulator.h"
#include "stats/fairness.h"

int main() {
  using namespace phantom;
  using sim::Time;

  sim::Simulator sim;

  // 1. Build the network: n sources -> switch -> destination, over one
  //    150 Mb/s controlled link (`port`) running Phantom.
  constexpr int kSessions = 3;
  auto [net, port] = exp::Scenario{.sessions = kSessions}.build(sim);

  // 2. Instrument: record MACR, sample the queue, run a goodput probe.
  sim::Trace macr;
  port.controller().set_rate_trace(&macr, sim.now());
  exp::QueueSampler queue{sim, port};
  exp::GoodputProbe goodput{sim, net};

  // 3. Run: everything starts at t = 0; measure over the last 100 ms.
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(300));
  goodput.mark();
  sim.run_until(Time::ms(400));

  // 4. Report.
  exp::print_header("quickstart", "3 greedy sessions, one 150 Mb/s link");
  exp::print_series("MACR (Mb/s)", macr.samples(), 1e-6, 15);
  exp::print_series("queue (cells)", queue.trace().samples(), 1.0, 15);

  const auto rates = goodput.rates_mbps();
  exp::Table table{{"session", "goodput (Mb/s)", "ideal u*C/(n+1)"}};
  for (std::size_t s = 0; s < rates.size(); ++s) {
    table.add_row({std::to_string(s), exp::Table::num(rates[s]),
                   exp::Table::num(0.95 * 150 / (kSessions + 1))});
  }
  table.print();
  std::printf("\nJain fairness index: %.4f\n", stats::jain_index(rates));
  std::printf("max queue: %zu cells, drops: %llu\n", port.max_queue_length(),
              static_cast<unsigned long long>(port.cells_dropped()));
  return 0;
}
