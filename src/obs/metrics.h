// Unified metrics registry: every component's counters behind one door.
//
// Before this layer each subsystem grew its own stats surface — Switch
// CAC counters, Policer totals, BufferManager discard ladder, per-port
// drop counts — and every experiment/report hand-picked the ones it
// knew about. The Registry inverts that: each component registers its
// metrics once (name, stable id, type, unit, owning component), and
// anything downstream — `phantom_cli --metrics-out`, the generated
// docs/METRICS.md reference, tests — enumerates the registry instead of
// chasing accessors.
//
// The registry is *pull-based*: counters and gauges are sampler
// callbacks reading the component's existing fields, so registration
// adds no per-cell cost anywhere. Histograms are the one push-style
// type (components observe into an obs::Histogram they own). Sampler
// callbacks capture component pointers — the registry must not outlive
// the network it samples.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace phantom::obs {

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricType type);

/// Identity and documentation of one registered metric.
struct MetricDef {
  /// Unique instance path, e.g. "bottleneck.port0.cells_dropped".
  std::string name;
  /// Stable per-kind id shared by all instances, e.g.
  /// "port.cells_dropped" — the key docs/METRICS.md documents.
  std::string id;
  MetricType type = MetricType::kCounter;
  /// Unit of the sampled value ("cells", "Mb/s", "vcs", "ratio", …).
  std::string unit;
  /// Owning component type, e.g. "OutputPort".
  std::string component;
  /// One-line description.
  std::string help;
};

/// Fixed-bucket histogram (push-style: the owning component calls
/// observe()). Bucket `i` counts observations <= bounds[i]; one
/// implicit overflow bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (overflow last).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Largest observation; zero when empty.
  [[nodiscard]] double max() const { return max_; }
  /// Value at quantile q in [0, 1] (std::invalid_argument otherwise),
  /// interpolated linearly within its bucket; the first bucket starts
  /// at min(0, bounds[0]). An overflow hit reads the last bound (a
  /// lower bound on the true value). Zero when empty.
  [[nodiscard]] double quantile(double q) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// The registry. Components add metrics at wiring time; snapshots
/// enumerate every metric sorted by name, so two snapshots of the same
/// simulation state are byte-identical.
class Registry {
 public:
  using CounterFn = std::function<std::uint64_t()>;
  using GaugeFn = std::function<double()>;

  /// All add_* calls throw std::invalid_argument on a duplicate name.
  void add_counter(MetricDef def, CounterFn sample);
  void add_gauge(MetricDef def, GaugeFn sample);
  /// `hist` must outlive the registry.
  void add_histogram(MetricDef def, const Histogram* hist);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Every registered definition, sorted by name.
  [[nodiscard]] std::vector<const MetricDef*> defs() const;

  /// One snapshot object: {"time_ns":…,"metrics":[{…,"value":…},…]}.
  /// Single line (no embedded newlines), so a file of periodic
  /// snapshots is valid JSONL.
  [[nodiscard]] std::string snapshot_json(sim::Time now) const;

  /// Long-format CSV rows "time_ms,name,type,unit,value" (no header;
  /// see csv_header()). Histograms expand to .count / .sum /
  /// .le_<bound> rows.
  [[nodiscard]] std::string snapshot_csv(sim::Time now) const;
  [[nodiscard]] static std::string csv_header();

 private:
  struct Entry {
    MetricDef def;
    CounterFn counter;            // kCounter
    GaugeFn gauge;                // kGauge
    const Histogram* hist = nullptr;  // kHistogram
  };

  void add(Entry entry);
  /// Indices of entries_ sorted by name.
  [[nodiscard]] std::vector<std::size_t> sorted() const;

  std::vector<Entry> entries_;
  std::unordered_set<std::string> names_;
};

}  // namespace phantom::obs
