// Fig. 4: Phantom with on/off sessions — two greedy sessions plus one
// on/off session toggling every 60 ms on a 150 Mb/s link.
//
// Paper shape: MACR re-converges after every toggle (up when the
// session leaves, down when it returns); the queue spikes moderately at
// each ON transition and drains; no cells are lost.
#include "bench_util.h"

using namespace phantom;
using namespace phantom::bench;
using sim::Time;

int main() {
  exp::print_header("Fig 4", "Phantom with an on/off session");

  sim::Simulator sim;
  AbrBottleneck b{sim, exp::Algorithm::kPhantom, 3};
  sim::Trace macr;
  b.port().controller().set_rate_trace(&macr, sim.now());
  exp::QueueSampler queue{sim, b.port()};
  b.net.start_all(Time::zero(), Time::zero());
  topo::OnOffDriver::Options opt;
  opt.on_period = Time::ms(60);
  opt.off_period = Time::ms(60);
  opt.first_toggle = Time::ms(60);
  topo::OnOffDriver driver{sim, b.net.source(2), opt};

  exp::GoodputProbe probe{sim, b.net};
  // Measure one ON window (360-415 ms) and one OFF window (420-475 ms).
  sim.run_until(Time::ms(370));
  probe.mark();
  sim.run_until(Time::ms(415));
  const auto on_rates = probe.rates_mbps();
  sim.run_until(Time::ms(430));
  probe.mark();
  sim.run_until(Time::ms(475));
  const auto off_rates = probe.rates_mbps();

  exp::print_series("MACR (Mb/s)", macr.samples(), 1e-6, 25);
  exp::print_series("queue (cells)", queue.trace().samples(), 1.0, 25);

  exp::Table table{{"session", "ON phase (Mb/s)", "OFF phase (Mb/s)"}};
  const char* names[] = {"greedy 0", "greedy 1", "on/off"};
  for (std::size_t s = 0; s < 3; ++s) {
    table.add_row({names[s], exp::Table::num(on_rates[s]),
                   exp::Table::num(off_rates[s])});
  }
  table.print();
  std::printf(
      "\nexpected: ON -> all ~u*C/4 = 35.6; OFF -> greedy ~u*C/3 = 47.5\n"
      "toggles: %llu, drops: %llu, max queue: %zu cells\n",
      static_cast<unsigned long long>(driver.toggles()),
      static_cast<unsigned long long>(b.port().cells_dropped()),
      b.port().max_queue_length());
  return 0;
}
