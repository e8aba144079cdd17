// Generic-fairness-style configuration (extension): heterogeneous link
// rates, crossing sessions of different path lengths — the stress test
// ATM Forum contributions used to compare explicit-rate schemes. Checks
// Phantom against the phantom-augmented max-min reference, and shows
// ERICA (per-VC state) hitting the plain max-min allocation.
//
//   [s0] ==150==> [s1] ==45==> [s2] ==150==> [s3]
//   A: s0 -> s3 (all three trunks)         D: s1 -> s2 (the narrow link)
//   B: s0 -> s1 (first trunk)              E: s2 -> s3 (last trunk)
//   C: s1 -> s3 (second + third trunks)    F: s0 -> s3 (same as A)
#include "bench_util.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

namespace {

void run(exp::Algorithm alg, bool phantom_reference) {
  sim::Simulator sim;
  topo::AbrNetwork net{sim, exp::make_factory(alg)};
  const auto s0 = net.add_switch("s0");
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  const auto s3 = net.add_switch("s3");
  topo::TrunkOptions narrow;
  narrow.rate = Rate::mbps(45);
  const auto t01 = net.add_trunk(s0, s1, {});
  const auto t12 = net.add_trunk(s1, s2, narrow);
  const auto t23 = net.add_trunk(s2, s3, {});
  topo::TrunkOptions stub;
  stub.controlled = false;
  stub.rate = Rate::mbps(622);
  const auto d1 = net.add_destination(s1, stub);
  const auto d2 = net.add_destination(s2, stub);
  const auto d3 = net.add_destination(s3, stub);

  net.add_session(s0, {t01, t12, t23}, d3);  // A (3 hops)
  net.add_session(s0, {t01}, d1);            // B
  net.add_session(s1, {t12, t23}, d3);       // C (2 hops)
  net.add_session(s1, {t12}, d2);            // D
  net.add_session(s2, {t23}, d3);            // E
  net.add_session(s0, {t01, t12, t23}, d3);  // F (3 hops, A's twin)

  exp::GoodputProbe probe{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(500));
  probe.mark();
  sim.run_until(Time::ms(900));
  const auto measured = probe.rates_mbps();
  const auto ideal = net.reference_rates(phantom_reference, 0.95);

  std::printf("\n%s (reference: max-min%s)\n", exp::to_string(alg).c_str(),
              phantom_reference ? " + phantom/link" : "");
  exp::Table table{{"session", "path", "measured (Mb/s)", "reference"}};
  const char* names[] = {"A", "B", "C", "D", "E", "F"};
  const char* paths[] = {"150-45-150", "150", "45-150", "45", "150",
                         "150-45-150"};
  std::vector<double> ideal_mbps;
  for (std::size_t s = 0; s < measured.size(); ++s) {
    ideal_mbps.push_back(ideal[s].mbits_per_sec());
    table.add_row({names[s], paths[s], exp::Table::num(measured[s]),
                   exp::Table::num(ideal_mbps.back())});
  }
  table.print();
  std::printf("closeness to reference: %.4f\n",
              stats::maxmin_closeness(measured, ideal_mbps));
}

}  // namespace

int main() {
  exp::print_header("GFC (extension)",
                    "generic fairness configuration, 6 sessions, 3 trunks");
  run(exp::Algorithm::kPhantom, /*phantom_reference=*/true);
  run(exp::Algorithm::kErica, /*phantom_reference=*/false);
  return 0;
}
