// Resilience figure (new; no paper counterpart): recovery after faults
// on the parking-lot topology — a 50 ms outage of the first trunk while
// the network is in steady state, a Gilbert–Elliott burst-loss episode
// on the second trunk, then a controller restart that wipes the first
// trunk's learned state mid-run. Each algorithm runs the schedule under
// 5 seeds (the burst fault draws from the simulator's RNG, so seeds
// genuinely vary the loss pattern) and the table reports mean with
// min/max spread.
//
// Expected shape: all constant-space algorithms relearn their operating
// point from measurements alone, so the fair-share estimate returns to
// its pre-fault band within tens of ms of each perturbation; Phantom's
// MACR lands back within 10% of the max-min+phantom reference for every
// seed, queues drain the post-outage burst, and the invariant monitor
// stays silent.
#include "bench_util.h"

#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "stats/recovery.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

namespace {

constexpr double kRelTol = 0.1;  // "reconverged" = within 10% of target
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};

struct RunResult {
  std::string algorithm;
  double target_mbps = 0.0;        // pre-fault fair-share operating point
  std::optional<Time> reconverge;  // latency from outage start
  double peak_queue = 0.0;         // cells, after the outage begins
  double post_fault_jain = 0.0;
  std::size_t violations = 0;
  double final_share_mbps = 0.0;
};

RunResult run_case(exp::Algorithm alg, std::uint64_t seed) {
  sim::Simulator sim{seed};
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

  const Time outage_at = Time::ms(250);
  const Time outage_len = Time::ms(50);
  const Time restart_at = Time::ms(450);
  const Time end = Time::ms(800);

  fault::FaultInjector injector{sim, net};
  injector.apply(
      fault::FaultPlan{}
          .outage(fault::trunk(t01), outage_at, outage_len)
          .burst(fault::trunk(t12), Time::ms(330), Time::ms(40), 0.2, 0.5, 0.6)
          .restart(fault::trunk(t01), restart_at));
  fault::InvariantMonitor monitor{sim, net};
  exp::FairShareSampler share{sim, net.trunk_port(t01).controller()};
  exp::QueueSampler queue{sim, net.trunk_port(t01)};
  exp::GoodputProbe probe{sim, net};

  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(600));
  probe.mark();
  sim.run_until(end);
  monitor.check_now();

  RunResult r;
  r.algorithm = exp::to_string(alg);
  // Operating point = the algorithm's own pre-fault mean fair share; the
  // recovery question is "does it come back to where it was", which is
  // algorithm-independent even though the operating points differ.
  r.target_mbps = stats::mean_in_window(share.trace().samples(), Time::ms(150),
                                        outage_at) *
                  1e-6;
  r.reconverge = stats::time_to_reconverge(
      share.trace().samples(), outage_at, r.target_mbps * 1e6, kRelTol);
  r.peak_queue = stats::peak_in_window(queue.trace().samples(), outage_at, end);
  const auto rates = probe.rates_mbps();
  r.post_fault_jain = stats::jain_index(rates);
  r.violations = monitor.violations().size();
  r.final_share_mbps = share.trace().last_or(0.0) * 1e-6;

  if (seed == kSeeds[0]) {
    exp::maybe_dump_series("fig_faults", "share_" + r.algorithm,
                           share.trace().samples(), 1e-6);
    exp::maybe_dump_series("fig_faults", "queue_" + r.algorithm,
                           queue.trace().samples());
    if (alg == exp::Algorithm::kPhantom) {
      exp::print_fault_log(injector.log());
      exp::print_series("Phantom MACR on trunk0 (Mb/s, seed 1)",
                        share.trace().samples(), 1e-6, 30);
    }
  }
  return r;
}

/// mean [min, max] over the seeds, e.g. "34.2 [31.0, 38.5]".
std::string spread(const std::vector<double>& xs, int precision = 1) {
  double lo = xs.front(), hi = xs.front(), sum = 0.0;
  for (const double x : xs) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    sum += x;
  }
  return exp::Table::num(sum / static_cast<double>(xs.size()), precision) +
         " [" + exp::Table::num(lo, precision) + ", " +
         exp::Table::num(hi, precision) + "]";
}

}  // namespace

int main() {
  exp::print_header("Fig F1",
                    "resilience: outage + burst loss + restart, parking lot");
  std::printf(
      "parking lot, 2 x 150 Mb/s trunks; outage of trunk0 at 250 ms for 50 ms,"
      "\nGilbert-Elliott burst on trunk1 at 330 ms for 40 ms,"
      "\ncontroller restart on trunk0 at 450 ms; run to 800 ms; 5 seeds\n\n");

  exp::Table table{{"algorithm", "pre-fault share (Mb/s)",
                    "reconverge (ms, mean [min,max])",
                    "peak queue (cells, mean [min,max])", "post-fault Jain",
                    "violations"}};
  bool phantom_ok = true;
  for (const auto alg : {exp::Algorithm::kPhantom, exp::Algorithm::kEprca,
                         exp::Algorithm::kErica}) {
    std::vector<double> reconverge_ms, peaks, shares, jains;
    std::size_t violations = 0, never = 0;
    for (const std::uint64_t seed : kSeeds) {
      const RunResult r = run_case(alg, seed);
      if (r.reconverge) {
        reconverge_ms.push_back(r.reconverge->milliseconds());
      } else {
        ++never;
      }
      peaks.push_back(r.peak_queue);
      shares.push_back(r.target_mbps);
      jains.push_back(r.post_fault_jain);
      violations += r.violations;

      if (alg == exp::Algorithm::kPhantom) {
        // Per-seed acceptance: back within 10% of the max-min+phantom
        // reference for trunk0 (2 real sessions + 1 phantom at u = 0.95:
        // 0.95 * 150 / 3 = 47.5 Mb/s), no misses, no violations.
        const double ideal = 47.5;
        const double err = std::abs(r.final_share_mbps - ideal) / ideal;
        if (err > kRelTol || !r.reconverge || r.violations != 0) {
          std::printf("Phantom FAILED seed %llu: final %.2f Mb/s, err %.1f%%, "
                      "reconverged %s, %zu violations\n",
                      static_cast<unsigned long long>(seed),
                      r.final_share_mbps, err * 100.0,
                      r.reconverge ? "yes" : "no", r.violations);
          phantom_ok = false;
        }
      }
    }
    std::string reconverge_cell =
        reconverge_ms.empty() ? "never" : spread(reconverge_ms);
    if (never > 0) {
      reconverge_cell += " (" + std::to_string(never) + " never)";
    }
    table.add_row({exp::to_string(alg), spread(shares), reconverge_cell,
                   spread(peaks, 0), spread(jains, 4),
                   std::to_string(violations)});
  }
  std::printf("\n");
  table.print();

  std::printf("\nacceptance (Phantom, all 5 seeds): %s\n",
              phantom_ok ? "PASS" : "FAIL");
  return phantom_ok ? 0 : 1;
}
