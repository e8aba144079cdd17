// Misbehavior figure (new; no paper counterpart): what happens to the
// *compliant* sessions when non-compliant sources share their
// bottleneck, and how much of the damage per-VC policing undoes.
//
// 3 compliant sessions + A greedy adversaries (A = 1, 2, 4, 8) on one
// 150 Mb/s link. A greedy source ignores every backward-RM ER and
// transmits at PCR; the queue drops it inflicts are counted as offered
// load by the controller (the paper counts every arrival), so the MACR
// collapses toward the floor and the compliant sessions starve. The
// policer (atm/policer.h) re-derives each VC's contract from the moving
// fair share: monitor mode only counts violations, drop mode discards
// non-conforming cells at ingress — before they can distort the
// controller's load measurement.
//
// Expected shape: with policing off the compliant mean goodput is a few
// percent of fair share (< 50% at every adversary count); monitor mode
// is identical except the violations are now visible; drop mode
// restores >= 85% of the ideal u*C/(n+1) share at A = 1 and degrades
// gracefully from there — each policed adversary still pushes
// headroom * MACR of *conforming* cells through, so retention tracks
// (n+1) / (n+1 + (headroom-1) * A), the price of leaving ramp headroom
// in the contract. A second table shows the RM-forging and
// partially-compliant models at A = 1 for the same off/drop contrast.
#include "bench_util.h"

#include "atm/abr_source.h"
#include "atm/policer.h"

using namespace phantom;
using sim::Time;

namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr int kCompliant = 3;
constexpr double kLinkMbps = 150.0;
constexpr double kUtilization = 0.95;  // exp::make_factory default

struct RunResult {
  double retention = 0.0;        // mean compliant goodput / ideal share
  double compliant_mbps = 0.0;   // mean compliant goodput
  double adversary_mbps = 0.0;   // mean adversary goodput
  std::uint64_t policer_drops = 0;
  double violation_rate = 0.0;
};

RunResult run_case(int adversaries, atm::SourceBehavior behavior,
                   std::optional<atm::PolicingAction> action,
                   std::uint64_t seed, double compliance = 0.5) {
  sim::Simulator sim{seed};
  const int n = kCompliant + adversaries;
  auto b = exp::Scenario{.sessions = n, .rate_mbps = kLinkMbps}.build(sim);
  for (int i = 0; i < adversaries; ++i) {
    b.net.set_session_behavior(static_cast<std::size_t>(kCompliant + i),
                               behavior, compliance);
  }
  if (action) {
    atm::PolicerConfig pc;
    pc.action = *action;
    b.net.enable_policing(pc);
  }

  exp::GoodputProbe probe{sim, b.net};
  b.net.start_all(Time::zero(), Time::zero());
  const Time horizon = Time::ms(600);
  sim.run_until(horizon * 0.6);
  probe.mark();
  sim.run_until(horizon);

  const auto rates = probe.rates_mbps();
  // One phantom session per port: the ideal compliant share is
  // u * C / (n + 1), the equilibrium every session would get if all of
  // them obeyed the feedback.
  const double ideal = kUtilization * kLinkMbps / (n + 1);
  RunResult r;
  std::vector<double> compliant{rates.begin(), rates.begin() + kCompliant};
  std::vector<double> ideals(compliant.size(), ideal);
  r.retention = stats::fair_share_retention(compliant, ideals);
  for (int s = 0; s < kCompliant; ++s) r.compliant_mbps += rates[s];
  r.compliant_mbps /= kCompliant;
  for (int s = kCompliant; s < n; ++s) r.adversary_mbps += rates[s];
  r.adversary_mbps /= adversaries;
  r.policer_drops = b.net.policer_dropped_cells();
  if (const atm::Policer* p = b.net.node(0).policer()) {
    r.violation_rate = p->violation_rate();
  }
  return r;
}

std::string policy_name(const std::optional<atm::PolicingAction>& a) {
  return a ? atm::to_string(*a) : "off";
}

}  // namespace

int main() {
  exp::print_header("Fig M1", "misbehaving sources vs per-VC policing");
  std::printf(
      "%d compliant + A greedy sessions, one %.0f Mb/s link; retention ="
      "\nmean compliant goodput / ideal u*C/(n+1) share; %zu seeds\n\n",
      kCompliant, kLinkMbps, std::size(kSeeds));

  const std::optional<atm::PolicingAction> kPolicies[] = {
      std::nullopt, atm::PolicingAction::kMonitor, atm::PolicingAction::kDrop};

  bool ok = true;
  // Drop-mode floors: 0.85 at A = 1 (the headline acceptance bound,
  // mirrored by test_misbehavior.cc), then the headroom-tax curve
  // (n+1)/(n+1 + 0.5 A) minus a measurement margin.
  const auto drop_floor = [](int a) {
    switch (a) {
      case 1: return 0.85;
      case 2: return 0.75;
      case 4: return 0.70;
      default: return 0.65;
    }
  };
  exp::Table table{{"adversaries", "policing", "retention (mean [min,max])",
                    "compliant (Mb/s)", "adversary (Mb/s)", "violation rate",
                    "policer drops"}};
  for (const int adversaries : {1, 2, 4, 8}) {
    for (const auto& action : kPolicies) {
      std::vector<double> retention, compliant, adversary, viol;
      std::uint64_t drops = 0;
      for (const std::uint64_t seed : kSeeds) {
        const RunResult r =
            run_case(adversaries, atm::SourceBehavior::kGreedy, action, seed);
        retention.push_back(r.retention);
        compliant.push_back(r.compliant_mbps);
        adversary.push_back(r.adversary_mbps);
        viol.push_back(r.violation_rate);
        drops += r.policer_drops;

        // Acceptance mirrors test_misbehavior.cc: unpoliced greedy
        // sources starve compliant traffic below half its share; drop
        // policing restores at least 85% of it. Checked per seed.
        if (!action && r.retention >= 0.5) {
          std::printf("FAILED: A=%d policing=off seed %llu retention %.2f "
                      ">= 0.50\n",
                      adversaries, static_cast<unsigned long long>(seed),
                      r.retention);
          ok = false;
        }
        if (action == atm::PolicingAction::kDrop &&
            r.retention < drop_floor(adversaries)) {
          std::printf("FAILED: A=%d policing=drop seed %llu retention %.2f "
                      "< %.2f\n",
                      adversaries, static_cast<unsigned long long>(seed),
                      r.retention, drop_floor(adversaries));
          ok = false;
        }
      }
      table.add_row({std::to_string(adversaries), policy_name(action),
                     exp::spread(retention, 2), exp::spread(compliant),
                     exp::spread(adversary), exp::spread(viol, 2),
                     std::to_string(drops)});
    }
  }
  table.print();

  std::printf("\nother adversary models (A = 1):\n\n");
  exp::Table table2{{"model", "policing", "retention (mean [min,max])",
                     "compliant (Mb/s)", "adversary (Mb/s)"}};
  const struct {
    const char* name;
    atm::SourceBehavior behavior;
    double compliance;
  } kModels[] = {
      {"forge", atm::SourceBehavior::kForging, 0.0},
      {"partial 0.5", atm::SourceBehavior::kPartial, 0.5},
  };
  for (const auto& m : kModels) {
    for (const auto& action :
         {std::optional<atm::PolicingAction>{}, kPolicies[2]}) {
      std::vector<double> retention, compliant, adversary;
      for (const std::uint64_t seed : kSeeds) {
        const RunResult r =
            run_case(1, m.behavior, action, seed, m.compliance);
        retention.push_back(r.retention);
        compliant.push_back(r.compliant_mbps);
        adversary.push_back(r.adversary_mbps);
      }
      table2.add_row({m.name, policy_name(action), exp::spread(retention, 2),
                      exp::spread(compliant), exp::spread(adversary)});
    }
  }
  table2.print();

  std::printf("\nacceptance (greedy, all seeds): %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
