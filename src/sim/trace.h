// Time-series recording for experiment output.
#pragma once

#include <span>
#include <vector>

#include "sim/time.h"

namespace phantom::sim {

/// One recorded observation.
struct Sample {
  Time time;
  double value = 0.0;
  friend bool operator==(const Sample&, const Sample&) = default;
};

/// Append-only time series, the raw material of every figure the paper
/// plots (MACR over time, queue length over time, per-session rate...).
/// Observers (benches, tests, probes) own their series; a simulated
/// component writes into one only after a caller attached it (DESIGN.md
/// "Observation: components publish, callers store").
class Trace {
 public:
  void record(Time t, double v) { samples_.push_back(Sample{t, v}); }

  [[nodiscard]] std::span<const Sample> samples() const { return samples_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] const Sample& back() const { return samples_.back(); }

  /// Last recorded value, or `fallback` if nothing was recorded yet.
  [[nodiscard]] double last_or(double fallback) const {
    return samples_.empty() ? fallback : samples_.back().value;
  }

  void clear() { samples_.clear(); }

 private:
  std::vector<Sample> samples_;
};

}  // namespace phantom::sim
