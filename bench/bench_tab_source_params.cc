// Source-parameter sensitivity (TM 4.0 end-system knobs): how the
// paper's quoted AIR*Nrm, Nrm and RDF settings shape convergence.
//
// The paper leans on "AIR*Nrm much smaller than 30 Mb/s" for its
// two-session convergence argument; this bench shows what happens when
// that assumption is stretched, and how RM-cell frequency (Nrm) and the
// decrease factor (RDF) trade convergence speed against steady-state
// ripple.
#include "bench_util.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

namespace {

struct Outcome {
  double goodput_per_session = 0;
  double settle_ms = 0;
  double acr_stddev = 0;  // steady-state ripple of session 0's ACR, Mb/s
  std::size_t max_queue = 0;
};

Outcome run(atm::AbrParams params, int n = 2) {
  sim::Simulator sim;
  auto [net, port] =
      exp::Scenario{.sessions = n, .abr_params = params}.build(sim);
  sim::Trace acr0;
  net.source(0).set_acr_trace(&acr0);
  exp::GoodputProbe probe{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(300));
  probe.mark();
  sim.run_until(Time::ms(500));
  Outcome out;
  for (const double r : probe.rates_mbps()) out.goodput_per_session += r;
  out.goodput_per_session /= n;
  const double ideal = 0.95 * 150e6 / (n + 1);
  out.settle_ms =
      stats::convergence_time(acr0.samples(), ideal, 0.10).milliseconds();
  const auto tail =
      stats::summarize(acr0.samples(), Time::ms(300), Time::ms(500));
  out.acr_stddev = tail.stddev / 1e6;
  out.max_queue = port.max_queue_length();
  return out;
}

}  // namespace

int main() {
  exp::print_header("Source params",
                    "TM 4.0 end-system knobs, 2 greedy sessions @ 150 Mb/s");

  {
    exp::Table t{{"AIR*Nrm (Mb/s)", "goodput/session", "ACR settle (ms)",
                  "ACR ripple", "max queue"}};
    for (const double air : {1.0, 4.25, 10.0, 30.0}) {
      atm::AbrParams p;
      p.air_nrm = Rate::mbps(air);
      const auto r = run(p);
      t.add_row({exp::Table::num(air, 2),
                 exp::Table::num(r.goodput_per_session),
                 exp::Table::num(r.settle_ms, 1),
                 exp::Table::num(r.acr_stddev, 3),
                 std::to_string(r.max_queue)});
    }
    t.print();
    std::printf(
        "expected: larger AIR ramps faster but overshoots MACR between\n"
        "RM cells, growing ripple and transient queue (the paper's\n"
        "\"AIR*Nrm much smaller than 30 Mb/s\" assumption).\n");
  }

  {
    exp::Table t{{"Nrm (cells/RM)", "goodput/session", "ACR settle (ms)",
                  "RM overhead %"}};
    for (const int nrm : {8, 16, 32, 64}) {
      atm::AbrParams p;
      p.nrm = nrm;
      // Keep the per-RM increase equivalent so only feedback frequency
      // varies.
      const auto r = run(p);
      t.add_row({std::to_string(nrm), exp::Table::num(r.goodput_per_session),
                 exp::Table::num(r.settle_ms, 1),
                 exp::Table::num(100.0 / nrm, 1)});
    }
    t.print();
    std::printf(
        "expected: small Nrm = tighter control loop but more overhead\n"
        "(1/Nrm of cells are RM cells and carry no payload).\n");
  }

  {
    exp::Table t{{"RDF", "goodput/session", "ACR ripple", "max queue"}};
    for (const double rdf : {64.0, 128.0, 256.0, 1024.0}) {
      atm::AbrParams p;
      p.rdf = rdf;
      const auto r = run(p);
      t.add_row({exp::Table::num(rdf, 0),
                 exp::Table::num(r.goodput_per_session),
                 exp::Table::num(r.acr_stddev, 3),
                 std::to_string(r.max_queue)});
    }
    t.print();
    std::printf(
        "expected: with pure explicit-rate feedback (CI never set) RDF is\n"
        "almost inert — it matters for the binary/EFCI variants.\n");
  }
  return 0;
}
