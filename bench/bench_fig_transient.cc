// Fig. 12-13 (reconstructed numbering): transient adaptation — sessions
// join and leave a loaded link.
//
// Paper shape: each join pulls MACR down a step (u*C/2 -> u*C/3 ->
// u*C/4 ...); each leave releases it back up; adaptation completes in
// tens of ms with bounded queue excursions.
#include "bench_util.h"

using namespace phantom;
using sim::Time;

int main() {
  exp::print_header("Fig 12-13", "sessions joining and leaving");

  sim::Simulator sim;
  auto b = exp::Scenario{.sessions = 4}.build(sim);
  sim::Trace macr;
  b.port.controller().set_rate_trace(&macr, sim.now());
  exp::QueueSampler queue{sim, b.port};
  // Session 0,1 start at t=0; 2 joins at 150 ms; 3 joins at 300 ms;
  // session 1 leaves at 450 ms.
  b.net.source(0).start(Time::zero());
  b.net.source(1).start(Time::zero());
  b.net.source(2).start(Time::ms(150));
  b.net.source(3).start(Time::ms(300));
  sim.schedule_at(Time::ms(450), [&] { b.net.source(1).set_active(false); });

  exp::GoodputProbe probe{sim, b.net};
  struct Phase {
    const char* name;
    Time from, to;
    double ideal;
  };
  const Phase phases[] = {
      {"2 sessions [100,145ms]", Time::ms(100), Time::ms(145), 47.5},
      {"3 sessions [250,295ms]", Time::ms(250), Time::ms(295), 35.625},
      {"4 sessions [400,445ms]", Time::ms(400), Time::ms(445), 28.5},
      {"3 sessions [550,600ms]", Time::ms(550), Time::ms(600), 35.625},
  };

  exp::Table table{{"phase", "mean active goodput (Mb/s)", "ideal u*C/(n+1)"}};
  for (const Phase& p : phases) {
    sim.run_until(p.from);
    probe.mark();
    sim.run_until(p.to);
    const auto rates = probe.rates_mbps();
    double mean = 0;
    int active = 0;
    for (const double r : rates) {
      if (r > 1.0) {  // active sessions only
        mean += r;
        ++active;
      }
    }
    mean /= std::max(1, active);
    table.add_row({p.name, exp::Table::num(mean), exp::Table::num(p.ideal)});
  }
  table.print();

  exp::print_series("MACR (Mb/s)", macr.samples(), 1e-6, 30);
  exp::print_series("queue (cells)", queue.trace().samples(), 1.0, 20);
  std::printf("\nmax queue: %zu cells, drops: %llu\n",
              b.port.max_queue_length(),
              static_cast<unsigned long long>(b.port.cells_dropped()));
  return 0;
}
