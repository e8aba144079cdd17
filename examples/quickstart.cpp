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

#include "exp/factories.h"
#include "exp/probes.h"
#include "exp/report.h"
#include "sim/simulator.h"
#include "stats/fairness.h"
#include "topo/abr_network.h"

int main() {
  using namespace phantom;
  using sim::Rate;
  using sim::Time;

  sim::Simulator sim;

  // 1. Build the network: n sources -> switch -> destination.
  topo::AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("bottleneck");
  const auto dest = net.add_destination(sw, {});  // 150 Mb/s, controlled
  constexpr int kSessions = 3;
  for (int i = 0; i < kSessions; ++i) net.add_session(sw, {}, dest);

  // 2. Instrument: record MACR, sample the queue, run a goodput probe.
  sim::Trace macr;
  net.dest_port(dest).controller().set_rate_trace(&macr, sim.now());
  exp::QueueSampler queue{sim, net.dest_port(dest)};
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
  std::printf("max queue: %zu cells, drops: %llu\n",
              net.dest_port(dest).max_queue_length(),
              static_cast<unsigned long long>(
                  net.dest_port(dest).cells_dropped()));
  return 0;
}
