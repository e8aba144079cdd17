// Fairness metrics and the exact max-min reference allocation.
//
// The paper's yardstick is max-min fairness [BG87]: an allocation is
// max-min fair if no session's rate can be raised without lowering the
// rate of a session with equal or smaller rate. `MaxMinSolver` computes
// that allocation exactly by progressive filling, so every experiment can
// report measured-vs-ideal. The solver can also insert one *phantom*
// session per link, which yields the equilibrium the Phantom algorithm
// itself converges to (each link behaves as if it carried one extra
// session; see DESIGN.md §1).
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "sim/time.h"

namespace phantom::stats {

/// Jain's fairness index: (Σx)² / (n·Σx²). 1.0 means perfectly equal;
/// k/n means k sessions hog everything. Empty input yields 1.0 (an empty
/// allocation is vacuously fair); all-zero input likewise.
[[nodiscard]] double jain_index(std::span<const double> rates);

/// Normalized max-min fairness: mean over sessions of
/// min(measured, ideal)/max(measured, ideal) against a reference
/// allocation. 1.0 means the measured rates equal the reference.
[[nodiscard]] double maxmin_closeness(std::span<const double> measured,
                                      std::span<const double> ideal);

/// Fair-share retention: mean over sessions of min(measured/ideal, 1).
/// The misbehavior experiments' headline metric — what fraction of its
/// entitled rate a (compliant) session actually kept. Unlike
/// maxmin_closeness, overshooting the ideal is not penalized: a session
/// briefly above its share has retained it. Sessions with a zero ideal
/// count as fully retained. Empty input yields 1.0.
[[nodiscard]] double fair_share_retention(std::span<const double> measured,
                                          std::span<const double> ideal);

/// Exact max-min allocation over an arbitrary capacitated topology.
class MaxMinSolver {
 public:
  /// Adds a link and returns its index.
  std::size_t add_link(sim::Rate capacity);

  /// Adds a session traversing the given links (by index) and returns the
  /// session's index. A session must traverse at least one link.
  /// `demand` caps the session's allocation (a source that only ever
  /// wants 2 Mb/s is frozen there and the excess is shared on); the
  /// default is unbounded (greedy).
  std::size_t add_session(std::vector<std::size_t> links,
                          sim::Rate demand = sim::Rate::bps(
                              std::numeric_limits<double>::infinity()));

  /// Progressive-filling max-min allocation. If `phantom_per_link` is
  /// true, every link also carries one imaginary single-hop session; the
  /// returned rates are for the real sessions only. `utilization` scales
  /// every link capacity (the paper drives links at u < 1).
  [[nodiscard]] std::vector<sim::Rate> solve(bool phantom_per_link = false,
                                             double utilization = 1.0) const;

  [[nodiscard]] std::size_t num_sessions() const { return sessions_.size(); }

 private:
  std::vector<sim::Rate> capacities_;
  std::vector<std::vector<std::size_t>> sessions_;  // session -> links
  std::vector<double> demands_;                     // bps, may be +inf
};

}  // namespace phantom::stats
