// Overload figure (new; no paper counterpart): graceful degradation
// under resource exhaustion. A single 150 Mb/s bottleneck with a fixed
// 512-cell memory is offered an increasing population of sessions in
// contracted/elastic pairs: the contracted half carries an 8 Mb/s MCR
// (sources clamp ACR at their minimum, so explicit-rate feedback can
// never push the contracted load below sum-of-MCR), the elastic half is
// pure best-effort (MCR 0). All sessions speak 32-cell AAL5 frames.
// Past 38 offered sessions the contracted minimums alone exceed the
// link — an overload the rate control loop is contractually forbidden
// to resolve — and the 512-cell memory is the only thing standing
// between the admitted minimums and collapse.
//
// Three configurations per offered load:
//  * armor      — CAC + EPD (the full overload armor): setups beyond
//                 the buffer-headroom budget are refused, early
//                 discard sheds whole elastic frames at the occupancy
//                 threshold, MCR-protected frames ride through;
//  * no-cac+epd — everyone admitted; EPD still holds occupancy at the
//                 threshold by refusing elastic frames, so contracted
//                 frames keep finding room;
//  * no-cac     — everyone admitted and frame-aware discard disabled
//                 (EPD off, thresholds pushed to the budget top): cells
//                 are dropped individually, mid-frame, when the memory
//                 runs out, so MCR contracts are violated and frames
//                 arrive corrupt — the congestion-collapse cliff.
//
// Expected shape: armor's frame goodput stays flat as offered load
// grows (refusal rate takes the pressure), every admitted contracted
// session retains >= 95% of its MCR, and invariants stay clean.
// Without CAC the contracted minimums collapse in every buffering
// variant — once sum-of-MCR exceeds the link no discard policy can
// honour the contracts, which is exactly why admission control exists —
// but frame-aware discard still earns its keep: EPD spends the
// inevitable loss on whole frames, so fewer delivered frames arrive
// corrupt than under frame-blind tail drop.
#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/invariant_monitor.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

namespace {

constexpr double kRateMbps = 150.0;
constexpr double kMcrMbps = 8.0;
constexpr int kFrameCells = 32;
constexpr std::size_t kBudgetCells = 512;
constexpr int kOffered[] = {8, 16, 24, 32, 48};
const Time kMeasureFrom = Time::ms(200);
const Time kEnd = Time::ms(500);
constexpr double kRetentionBound = 0.95;

enum class Config { kArmor, kEpdOnly, kBare };

const char* to_string(Config c) {
  switch (c) {
    case Config::kArmor:   return "armor";
    case Config::kEpdOnly: return "no-cac+epd";
    case Config::kBare:    return "no-cac";
  }
  return "?";
}

struct RunResult {
  int admitted = 0;
  int refused = 0;
  double goodput_mbps = 0.0;     ///< complete-frame goodput, all sessions
  double min_retention = 1.0;    ///< min over admitted *contracted*
                                 ///< sessions of wire goodput / MCR
  std::uint64_t epd_frames = 0;
  std::uint64_t shed_cells = 0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t frames_corrupted = 0;
  std::size_t violations = 0;
};

RunResult run(int offered, Config config) {
  sim::Simulator sim{1};
  topo::AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  topo::TrunkOptions opts;
  opts.rate = Rate::mbps(kRateMbps);
  const auto dest = net.add_destination(sw, opts);

  topo::OverloadOptions oo;
  oo.buffer.budget_cells = kBudgetCells;
  if (config == Config::kBare) {
    // Frame-blind ablation: EPD off, and the EPD/shed thresholds pushed
    // to the top of the budget so the only discard left is dropping
    // individual cells when the memory runs out.
    oo.buffer.epd = false;
    oo.buffer.epd_fraction = 0.98;
    oo.buffer.shed_fraction = 0.99;
  }
  net.enable_overload_protection(oo);

  atm::AbrParams contracted;
  contracted.mcr = Rate::mbps(kMcrMbps);
  contracted.frame_cells = kFrameCells;
  atm::AbrParams elastic;
  elastic.frame_cells = kFrameCells;

  RunResult r;
  std::vector<std::size_t> admitted;          // session -> watched
  std::vector<bool> is_contracted;            // parallel to `admitted`
  for (int i = 0; i < offered; ++i) {
    const bool contract = i % 2 == 0;  // interleave contracted/elastic
    const atm::AbrParams& params = contract ? contracted : elastic;
    if (config == Config::kArmor) {
      const auto outcome = net.try_add_session(sw, {}, dest, params);
      if (outcome.admitted) {
        admitted.push_back(outcome.session);
        is_contracted.push_back(contract);
      } else {
        ++r.refused;
      }
    } else {
      // add_session bypasses the admission judgment (force-admitting
      // the MCR booking) — the "switch that never says no" ablation.
      admitted.push_back(net.add_session(sw, {}, dest, params));
      is_contracted.push_back(contract);
    }
  }
  r.admitted = static_cast<int>(admitted.size());

  fault::InvariantMonitor monitor{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(kMeasureFrom);

  std::vector<std::uint64_t> cells_at_mark;
  std::vector<std::uint64_t> frames_at_mark;
  for (const std::size_t s : admitted) {
    cells_at_mark.push_back(net.delivered_cells(s));
    frames_at_mark.push_back(net.delivered_frames(s));
  }
  sim.run_until(kEnd);
  monitor.check_now();

  const double window_s = (kEnd - kMeasureFrom).seconds();
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    const std::size_t s = admitted[i];
    const auto cell_delta = net.delivered_cells(s) - cells_at_mark[i];
    const auto frame_delta = net.delivered_frames(s) - frames_at_mark[i];
    r.goodput_mbps += static_cast<double>(frame_delta) * kFrameCells *
                      atm::kCellBits / window_s * 1e-6;
    if (!is_contracted[i]) continue;
    // MCR is a wire-rate contract; delivered cells are data only, so
    // scale by the FRM overhead (every Nrm-th cell) before comparing.
    const double rm_overhead = static_cast<double>(contracted.nrm) /
                               static_cast<double>(contracted.nrm - 1);
    const double wire_mbps = static_cast<double>(cell_delta) * atm::kCellBits *
                             rm_overhead / window_s * 1e-6;
    r.min_retention = std::min(r.min_retention, wire_mbps / kMcrMbps);
  }
  for (std::size_t d = 0; d < net.num_destinations(); ++d) {
    r.frames_corrupted += net.destination(d).total_frames_corrupted();
  }
  r.epd_frames = net.epd_frames_discarded();
  r.shed_cells = net.cells_shed();
  r.overflow_drops = net.buffer_overflow_drops();
  r.violations = monitor.violations().size();
  if (r.violations > 0) {
    const auto& v = monitor.violations().front();
    std::printf("  [%s offered=%d] invariant %s: %s\n", to_string(config),
                offered, v.invariant.c_str(), v.detail.c_str());
  }
  return r;
}

}  // namespace

int main() {
  exp::print_header("Fig OV", "graceful degradation under overload");
  std::printf(
      "bottleneck @ %.0f Mb/s, %zu-cell switch memory; sessions offered\n"
      "in contracted/elastic pairs (MCR %.0f / 0 Mb/s, %d-cell frames),\n"
      "count swept over {8, 16, 24, 32, 48}; goodput = complete AAL5\n"
      "frames over [%.0f, %.0f] ms; retention = worst contracted\n"
      "session's wire goodput / MCR. armor = CAC + EPD; no-cac admits\n"
      "everyone; no-epd is cell-granular tail drop at the hard budget.\n\n",
      kRateMbps, kBudgetCells, kMcrMbps, kFrameCells,
      kMeasureFrom.milliseconds(), kEnd.milliseconds());

  exp::Table table{{"offered", "config", "admitted", "refused",
                    "goodput (Mb/s)", "min MCR ret", "epd frames", "shed",
                    "overflow", "corrupted"}};
  bool armor_ok = true;
  double armor_goodput_at_capacity = 0.0;
  double armor_goodput_peak_load = 0.0;
  double bare_retention_peak = 1.0;
  std::uint64_t bare_corrupted_peak = 0;
  std::uint64_t epd_corrupted_peak = 0;
  std::uint64_t epd_frames_peak = 0;
  bool armor_refused_at_peak = false;
  const int peak = kOffered[sizeof(kOffered) / sizeof(kOffered[0]) - 1];

  for (const int offered : kOffered) {
    for (const Config config :
         {Config::kArmor, Config::kEpdOnly, Config::kBare}) {
      const RunResult r = run(offered, config);
      table.add_row({std::to_string(offered), to_string(config),
                     std::to_string(r.admitted), std::to_string(r.refused),
                     exp::Table::num(r.goodput_mbps),
                     exp::Table::num(r.min_retention, 3),
                     std::to_string(r.epd_frames),
                     std::to_string(r.shed_cells),
                     std::to_string(r.overflow_drops),
                     std::to_string(r.frames_corrupted)});

      if (config == Config::kArmor) {
        // Armor acceptance: clean invariants everywhere, contracted
        // minimums held at every offered load.
        if (r.violations != 0 || r.min_retention < kRetentionBound) {
          std::printf(
              "FAILED armor @ offered=%d: %zu violations, min retention "
              "%.3f\n",
              offered, r.violations, r.min_retention);
          armor_ok = false;
        }
        if (offered == 16) armor_goodput_at_capacity = r.goodput_mbps;
        if (offered == peak) {
          armor_goodput_peak_load = r.goodput_mbps;
          armor_refused_at_peak = r.refused > 0;
        }
      }
      if (config == Config::kBare && offered == peak) {
        bare_retention_peak = r.min_retention;
        bare_corrupted_peak = r.frames_corrupted;
      }
      if (config == Config::kEpdOnly && offered == peak) {
        epd_corrupted_peak = r.frames_corrupted;
        epd_frames_peak = r.epd_frames;
      }
    }
  }
  std::printf("\n");
  table.print();

  // Smoothness: armor's goodput at 3x overload stays within 10% of its
  // at-capacity goodput, with the refusal counters (not the contracted
  // sessions) absorbing the excess. Cliff: without CAC the MCR contract
  // breaks outright. EPD ablation: frame-aware discard engages and
  // spends the unavoidable loss on whole frames — fewer delivered
  // frames arrive corrupt than under frame-blind tail drop.
  const bool smooth =
      armor_goodput_peak_load >= 0.9 * armor_goodput_at_capacity &&
      armor_refused_at_peak;
  const bool cliff_shown = bare_retention_peak < 0.5;
  const bool epd_helps =
      epd_frames_peak > 0 && epd_corrupted_peak < bare_corrupted_peak;
  if (!smooth) {
    std::printf("FAILED: armor did not degrade smoothly (goodput %.2f @ "
                "peak vs %.2f at capacity, refusals %s)\n",
                armor_goodput_peak_load, armor_goodput_at_capacity,
                armor_refused_at_peak ? "yes" : "NONE");
  }
  if (!cliff_shown) {
    std::printf("FAILED: no-cac ablation shows no cliff (worst contracted "
                "retention %.3f at offered=%d — expected collapse)\n",
                bare_retention_peak, peak);
  }
  if (!epd_helps) {
    std::printf("FAILED: EPD ablation inconclusive (%llu EPD frames, "
                "corrupted %llu vs bare %llu at offered=%d)\n",
                static_cast<unsigned long long>(epd_frames_peak),
                static_cast<unsigned long long>(epd_corrupted_peak),
                static_cast<unsigned long long>(bare_corrupted_peak), peak);
  }

  std::printf("\nacceptance: armor (retention >= %.2f, clean invariants) "
              "%s | smooth goodput + refusals %s | no-cac cliff %s | "
              "EPD ablation %s\n",
              kRetentionBound, armor_ok ? "PASS" : "FAIL",
              smooth ? "PASS" : "FAIL", cliff_shown ? "PASS" : "FAIL",
              epd_helps ? "PASS" : "FAIL");
  return armor_ok && smooth && cliff_shown && epd_helps ? 0 : 1;
}
