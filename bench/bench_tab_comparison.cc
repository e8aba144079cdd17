// §5 summary table: Phantom vs EPRCA vs APRC vs CAPC, head to head on
// the single-bottleneck scenario — goodput, fairness, convergence speed
// (early goodput), queue behaviour, and beat-down resistance on the
// parking lot.
#include "bench_util.h"
#include "obs/metrics.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

namespace {

double beatdown_ratio(exp::Algorithm alg) {
  sim::Simulator sim;
  topo::AbrNetwork net{sim, exp::make_factory(alg)};
  const auto s0 = net.add_switch("s0");
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  const auto t01 = net.add_trunk(s0, s1, {});
  const auto t12 = net.add_trunk(s1, s2, {});
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
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  exp::GoodputProbe probe{sim, net};
  probe.mark();
  sim.run_until(Time::ms(700));
  const auto r = probe.rates_mbps();
  const double locals = (r[1] + r[2] + r[3]) / 3.0;
  return r[0] / locals;
}

}  // namespace

int main() {
  exp::print_header("Table (§5 summary)",
                    "all four algorithms, 5 greedy sessions @ 150 Mb/s");
  exp::Table table{{"algorithm", "state", "goodput/session", "Jain",
                    "early goodput", "max queue", "steady queue",
                    "delay p99 (ms)", "long/local (parking lot)"}};

  for (const auto alg : {exp::Algorithm::kPhantom, exp::Algorithm::kEprca,
                         exp::Algorithm::kAprc, exp::Algorithm::kCapc,
                         exp::Algorithm::kErica}) {
    sim::Simulator sim;
    auto b = exp::Scenario{.algorithm = alg, .sessions = 5}.build(sim);
    std::vector<double> bounds;  // ms, 0.1 ms buckets up to 100 ms
    for (int i = 1; i <= 1000; ++i) bounds.push_back(i / 10.0);
    obs::Histogram delays{bounds};
    b.net.destination(0).set_delay_histogram(&delays);
    exp::GoodputProbe probe{sim, b.net};
    b.net.start_all(Time::zero(), Time::zero());
    probe.mark();
    sim.run_until(Time::ms(30));
    const double early = probe.total_mbps();
    sim.run_until(Time::ms(400));
    probe.mark();
    sim.run_until(Time::ms(600));
    const auto rates = probe.rates_mbps();
    double mean = 0;
    for (const double r : rates) mean += r;
    mean /= static_cast<double>(rates.size());

    const bool per_vc = alg == exp::Algorithm::kErica;
    table.add_row({exp::to_string(alg), per_vc ? "O(VCs)" : "O(1)",
                   exp::Table::num(mean),
                   exp::Table::num(stats::jain_index(rates), 3),
                   exp::Table::num(early),
                   std::to_string(b.port.max_queue_length()),
                   std::to_string(b.port.queue_length()),
                   exp::Table::num(delays.quantile(0.99), 3),
                   exp::Table::num(beatdown_ratio(alg), 2)});
  }
  table.print();
  std::printf(
      "\nreading guide: Phantom = fair, fast, drained queue, no beat-down\n"
      "(long/local ~1). EPRCA/APRC = standing queues, beat-down < 1.\n"
      "CAPC = small queue but slow start-up (low early goodput). ERICA\n"
      "buys the exact fair share (u*C/n, no phantom penalty) with per-VC\n"
      "state — the space/precision trade-off the paper's classification\n"
      "of algorithms describes.\n");
  return 0;
}
