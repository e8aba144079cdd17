// Fig. 7-8 (reconstructed numbering): multi-hop max-min fairness on the
// parking-lot topology — one long session across three controlled links
// plus one local session per hop — and a second, heterogeneous variant
// with a narrow middle link.
//
// Paper shape: measured goodputs match the progressive-filling max-min
// reference (with one phantom session per link); the long session is
// not beaten down.
#include "bench_util.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

namespace {

void run_case(const char* title, Rate middle_rate) {
  sim::Simulator sim;
  topo::AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto s0 = net.add_switch("s0");
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  topo::TrunkOptions mid;
  mid.rate = middle_rate;
  const auto t01 = net.add_trunk(s0, s1, {});
  const auto t12 = net.add_trunk(s1, s2, mid);
  const auto d_end = net.add_destination(s2, {});
  topo::TrunkOptions stub;
  stub.controlled = false;
  stub.rate = Rate::mbps(622);
  const auto d1 = net.add_destination(s1, stub);
  const auto d2 = net.add_destination(s2, stub);
  net.add_session(s0, {t01, t12}, d_end);  // long
  net.add_session(s0, {t01}, d1);
  net.add_session(s1, {t12}, d2);
  net.add_session(s2, {}, d_end);

  exp::GoodputProbe probe{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  probe.mark();
  sim.run_until(Time::ms(700));
  const auto measured = probe.rates_mbps();
  const auto ideal = net.reference_rates(true, 0.95);

  std::printf("\n%s\n", title);
  exp::Table table{{"session", "measured (Mb/s)", "max-min+phantom (Mb/s)"}};
  const char* names[] = {"long (3 links)", "local 1", "local 2", "local 3"};
  std::vector<double> ideal_mbps;
  for (std::size_t s = 0; s < measured.size(); ++s) {
    ideal_mbps.push_back(ideal[s].mbits_per_sec());
    table.add_row({names[s], exp::Table::num(measured[s]),
                   exp::Table::num(ideal_mbps.back())});
  }
  table.print();
  std::printf("closeness to reference: %.4f\n",
              stats::maxmin_closeness(measured, ideal_mbps));
}

}  // namespace

int main() {
  exp::print_header("Fig 7-8", "parking lot: long session vs per-hop locals");
  run_case("uniform links (3 x 150 Mb/s):", Rate::mbps(150));
  run_case("narrow middle link (150 / 45 / 150 Mb/s):", Rate::mbps(45));
  return 0;
}
