// Self-healing figure (new; no paper counterpart): the control loop
// under feedback loss. A directional blackhole drops backward RM cells
// on the bottleneck's feedback path for 200 ms at sweep probabilities
// {0, 0.25, 0.5, 0.75, 1.0} while data keeps flowing — the scenario the
// TM 4.0 source-side backoff (Crm missing-RM threshold, CDF cutoff
// decrease, ADTF stale-ACR deadline; atm/abr_params.h) exists for.
// Every run arms the stale-VC reaper and the invariant monitor, and the
// whole sweep is repeated with the backoff disabled (the
// --no-feedback-decay ablation).
//
// Expected shape: with decay on, every algorithm keeps queues bounded
// at every loss rate and reconverges to its pre-fault operating point
// within tens of ms of the feedback path healing — at total loss the
// sources walk themselves down toward ICR and climb back by additive
// increase. With decay off, a total blackhole parks every source at a
// rate the network stopped granting: the stale-rate invariant names
// each of them, which is the whole argument for the mechanism.
//
// A second table compares cold vs warm controller restart: a cold
// restart wipes the learned state back to its initial constant, a warm
// restart reseeds it from the first window of observed RM traffic
// (PortController::warm_restart), and the recovery summary shows what
// that buys.
#include "bench_util.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "stats/recovery.h"

using namespace phantom;
using sim::Time;

namespace {

constexpr int kSessions = 4;
constexpr double kRateMbps = 150.0;
// Reconvergence is judged on a 10 ms-bucket smoothed share (APRC's
// congestion signal flip-flops by design, so its instantaneous
// estimate never holds a band even fault-free) with the chaos oracle's
// 15% tolerance.
constexpr double kRelTol = 0.15;
const Time kSmooth = Time::ms(10);
constexpr double kLossSweep[] = {0.0, 0.25, 0.5, 0.75, 1.0};
// Queues must not blow up while feedback is dark: well under the port's
// 20k-cell limit, with head room above the normal transient.
constexpr double kQueueBound = 4000.0;

const Time kBlackholeAt = Time::ms(250);
const Time kBlackholeLen = Time::ms(200);
const Time kEnd = Time::ms(800);

constexpr exp::Algorithm kAlgorithms[] = {
    exp::Algorithm::kPhantom, exp::Algorithm::kEprca, exp::Algorithm::kAprc,
    exp::Algorithm::kCapc, exp::Algorithm::kErica};

struct SweepResult {
  double target_mbps = 0.0;        // pre-fault operating point
  std::optional<Time> reconverge;  // from the window end
  double peak_queue = 0.0;         // cells, from the window start
  std::size_t stale_violations = 0;
  std::size_t other_violations = 0;
};

SweepResult run_sweep(exp::Algorithm alg, double loss, bool decay) {
  sim::Simulator sim{1};
  atm::AbrParams params;
  params.feedback_decay = decay;
  auto [net, port] = exp::Scenario{.algorithm = alg,
                                   .sessions = kSessions,
                                   .rate_mbps = kRateMbps,
                                   .abr_params = params}
                         .build(sim);
  net.enable_reaping();

  fault::FaultInjector injector{sim, net};
  if (loss > 0.0) {
    injector.apply(fault::FaultPlan{}.rm_blackhole(fault::dest(0), kBlackholeAt,
                                                   kBlackholeLen, loss));
  }
  fault::InvariantMonitor monitor{sim, net};
  exp::FairShareSampler share{sim, port.controller()};
  exp::QueueSampler queue{sim, port};

  net.start_all(Time::zero(), Time::zero());
  sim.run_until(kEnd);
  monitor.check_now();

  SweepResult r;
  r.target_mbps = stats::mean_in_window(share.trace().samples(), Time::ms(150),
                                        kBlackholeAt) *
                  1e-6;
  const auto smoothed = stats::smooth_series(share.trace().samples(), kSmooth);
  r.reconverge = stats::time_to_reconverge(
      smoothed, kBlackholeAt + kBlackholeLen, r.target_mbps * 1e6, kRelTol);
  r.peak_queue =
      stats::peak_in_window(queue.trace().samples(), kBlackholeAt, kEnd);
  for (const auto& v : monitor.violations()) {
    if (v.invariant == "stale-rate") {
      ++r.stale_violations;
    } else {
      ++r.other_violations;
    }
  }
  if (alg == exp::Algorithm::kPhantom && loss == 1.0) {
    exp::maybe_dump_series("fig_selfheal",
                           decay ? "share_decay_on" : "share_decay_off",
                           share.trace().samples(), 1e-6);
  }
  return r;
}

struct RestartResult {
  stats::RecoverySummary summary;
  double target_mbps = 0.0;
  std::uint64_t warm_restarts = 0;
  double seeded_mbps = 0.0;
};

RestartResult run_restart(exp::Algorithm alg, bool warm) {
  const Time restart_at = Time::ms(400);
  sim::Simulator sim{1};
  auto [net, port] = exp::Scenario{.algorithm = alg,
                                   .sessions = kSessions,
                                   .rate_mbps = kRateMbps}
                         .build(sim);

  fault::FaultInjector injector{sim, net};
  injector.apply(fault::FaultPlan{}.restart(fault::dest(0), restart_at, warm));
  exp::FairShareSampler share{sim, port.controller()};

  net.start_all(Time::zero(), Time::zero());
  sim.run_until(kEnd);

  RestartResult r;
  r.target_mbps = stats::mean_in_window(share.trace().samples(), Time::ms(300),
                                        restart_at) *
                  1e-6;
  const auto smoothed = stats::smooth_series(share.trace().samples(), kSmooth);
  r.summary = stats::summarize_recovery(smoothed, restart_at,
                                        r.target_mbps * 1e6, kRelTol);
  if (const auto* audit = port.controller().warm_audit()) {
    r.warm_restarts = audit->warm_restarts;
    r.seeded_mbps = audit->seeded_bps * 1e-6;
  }
  return r;
}

std::string fmt_reconverge(const std::optional<Time>& t) {
  return t ? exp::Table::num(t->milliseconds()) + " ms" : "never";
}

}  // namespace

int main() {
  exp::print_header("Fig SH", "self-healing under feedback loss");
  std::printf(
      "bottleneck, %d sessions @ %.0f Mb/s; backward-RM blackhole on the\n"
      "destination's feedback path at %.0f ms for %.0f ms, loss swept over\n"
      "{0, 0.25, 0.5, 0.75, 1.0}; reaper armed; run to %.0f ms.\n"
      "decay on = TM 4.0 backoff (crm=32, cdf=0.5, adtf=250 ms);\n"
      "decay off = the --no-feedback-decay ablation\n\n",
      kSessions, kRateMbps, kBlackholeAt.milliseconds(),
      kBlackholeLen.milliseconds(), kEnd.milliseconds());

  exp::Table table{{"algorithm", "BRM loss", "reconverge (on)",
                    "peak queue (on)", "stale viol (on)", "reconverge (off)",
                    "peak queue (off)", "stale viol (off)"}};
  bool sweep_ok = true;
  bool ablation_violates = true;
  for (const auto alg : kAlgorithms) {
    for (const double loss : kLossSweep) {
      const SweepResult on = run_sweep(alg, loss, /*decay=*/true);
      const SweepResult off = run_sweep(alg, loss, /*decay=*/false);
      table.add_row({exp::to_string(alg), exp::Table::num(loss, 2),
                     fmt_reconverge(on.reconverge),
                     exp::Table::num(on.peak_queue, 0),
                     std::to_string(on.stale_violations),
                     fmt_reconverge(off.reconverge),
                     exp::Table::num(off.peak_queue, 0),
                     std::to_string(off.stale_violations)});

      // Acceptance, decay on: bounded queues, zero stale-rate
      // violations and finite post-recovery reconvergence at every
      // loss rate, for every algorithm.
      if (!on.reconverge || on.peak_queue > kQueueBound ||
          on.stale_violations != 0 || on.other_violations != 0) {
        std::printf(
            "FAILED %s @ loss %.2f (decay on): reconverged %s, peak queue "
            "%.0f, %zu stale + %zu other violations\n",
            exp::to_string(alg).c_str(), loss,
            on.reconverge ? "yes" : "no", on.peak_queue, on.stale_violations,
            on.other_violations);
        sweep_ok = false;
      }
      // Acceptance, decay off: a total blackhole must trip the
      // stale-rate invariant (that is what the ablation demonstrates).
      // Below 100% the missing-RM counter never accumulates Crm
      // consecutive losses, so no violation is expected there.
      if (loss == 1.0 && off.stale_violations == 0) {
        std::printf("FAILED %s: decay-off total blackhole tripped no "
                    "stale-rate violation\n",
                    exp::to_string(alg).c_str());
        ablation_violates = false;
      }
    }
  }
  std::printf("\n");
  table.print();

  std::printf("\ncold vs warm controller restart at 400 ms (no blackhole):\n\n");
  exp::Table restart{{"algorithm", "mode", "reconverge", "peak (Mb/s)",
                      "settled (Mb/s)", "seeded (Mb/s)"}};
  for (const auto alg : kAlgorithms) {
    for (const bool warm : {false, true}) {
      const RestartResult r = run_restart(alg, warm);
      restart.add_row(
          {exp::to_string(alg), warm ? "warm" : "cold",
           fmt_reconverge(r.summary.reconverge),
           exp::Table::num(r.summary.peak * 1e-6),
           exp::Table::num(r.summary.settled_mean * 1e-6),
           warm ? exp::Table::num(r.seeded_mbps) : std::string{"-"}});
    }
  }
  restart.print();

  std::printf("\nacceptance: sweep (decay on, all algorithms) %s | "
              "decay-off ablation violates stale-rate %s\n",
              sweep_ok ? "PASS" : "FAIL",
              ablation_violates ? "PASS" : "FAIL");
  return sweep_ok && ablation_violates ? 0 : 1;
}
