#include "atm/policer.h"

#include <algorithm>

namespace phantom::atm {

std::string to_string(PolicingAction a) {
  switch (a) {
    case PolicingAction::kMonitor: return "monitor";
    case PolicingAction::kTag: return "tag";
    case PolicingAction::kDrop: return "drop";
  }
  return "?";
}

Policer::Verdict Policer::check(const Cell& cell, sim::Rate fair_share,
                                sim::Time now) {
  // Out of scope for UPC: guaranteed-class cells have their own
  // contract, backward RM cells belong to the *reverse* direction's
  // traffic, and a port with no fair-share estimate (uncontrolled) has
  // no reference rate to police against.
  if (cell.high_priority || cell.kind == CellKind::kBackwardRm ||
      fair_share.is_zero()) {
    return Verdict::kPass;
  }

  const sim::Rate allowed =
      std::max(config_.floor, fair_share * config_.headroom);
  const sim::Time increment = allowed.transmission_time(kCellBits);

  VcState& vc = vcs_[cell.vc];
  if (now >= vc.tat - config_.tolerance) {
    // Conforming: push the theoretical arrival time one inter-cell gap
    // past max(now, TAT) — the virtual-scheduling GCRA update.
    vc.tat = std::max(now, vc.tat) + increment;
    ++vc.stats.conforming;
    ++total_.conforming;
    return Verdict::kPass;
  }

  // Non-conforming. The TAT is deliberately *not* advanced: a violator
  // gains no future credit from cells the contract didn't cover.
  ++vc.stats.nonconforming;
  ++total_.nonconforming;
  switch (config_.action) {
    case PolicingAction::kMonitor:
      return Verdict::kPass;
    case PolicingAction::kTag:
      ++vc.stats.tagged;
      ++total_.tagged;
      return Verdict::kTag;
    case PolicingAction::kDrop:
      ++vc.stats.dropped;
      ++total_.dropped;
      return Verdict::kDrop;
  }
  return Verdict::kPass;
}

bool Policer::evict_vc(int vc) {
  if (!vcs_.erase(vc)) return false;
  ++evicted_;
  return true;
}

Policer::VcStats Policer::vc_stats(int vc) const {
  const VcState* st = vcs_.find(vc);
  return st == nullptr ? VcStats{} : st->stats;
}

double Policer::violation_rate() const {
  const std::uint64_t checked = cells_checked();
  return checked == 0
             ? 0.0
             : static_cast<double>(total_.nonconforming) /
                   static_cast<double>(checked);
}

double Policer::violation_rate(int vc) const {
  const VcStats s = vc_stats(vc);
  const std::uint64_t checked = s.conforming + s.nonconforming;
  return checked == 0 ? 0.0
                      : static_cast<double>(s.nonconforming) /
                            static_cast<double>(checked);
}

void Policer::register_metrics(obs::Registry& reg, const std::string& prefix) {
  reg.add_counter({prefix + ".cells_checked", "policer.cells_checked",
                   obs::MetricType::kCounter, "cells", "Policer",
                   "cells GCRA-checked at the ingress"},
                  [this] { return cells_checked(); });
  reg.add_counter({prefix + ".cells_conforming", "policer.cells_conforming",
                   obs::MetricType::kCounter, "cells", "Policer",
                   "cells found conforming"},
                  [this] { return total_.conforming; });
  reg.add_counter(
      {prefix + ".cells_nonconforming", "policer.cells_nonconforming",
       obs::MetricType::kCounter, "cells", "Policer",
       "cells found non-conforming"},
      [this] { return total_.nonconforming; });
  reg.add_counter({prefix + ".cells_tagged", "policer.cells_tagged",
                   obs::MetricType::kCounter, "cells", "Policer",
                   "non-conforming cells CLP-tagged (tag mode)"},
                  [this] { return total_.tagged; });
  reg.add_counter({prefix + ".cells_dropped", "policer.cells_dropped",
                   obs::MetricType::kCounter, "cells", "Policer",
                   "non-conforming cells discarded at ingress (drop mode)"},
                  [this] { return total_.dropped; });
  reg.add_counter({prefix + ".vcs_evicted", "policer.vcs_evicted",
                   obs::MetricType::kCounter, "vcs", "Policer",
                   "VC GCRA states evicted (reaper + teardown)"},
                  [this] { return evicted_; });
  reg.add_gauge({prefix + ".tracked_vcs", "policer.tracked_vcs",
                 obs::MetricType::kGauge, "vcs", "Policer",
                 "VCs currently holding GCRA state"},
                [this] { return static_cast<double>(vcs_.size()); });
  reg.add_gauge({prefix + ".violation_rate", "policer.violation_rate",
                 obs::MetricType::kGauge, "ratio", "Policer",
                 "fraction of checked cells found non-conforming"},
                [this] { return violation_rate(); });
}

}  // namespace phantom::atm
