// Plain-text experiment output: the series and tables the paper plots.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "sim/trace.h"

namespace phantom::exp {

/// Prints a banner identifying the experiment (figure/table id + title).
void print_header(const std::string& experiment_id, const std::string& title);

/// Prints a time series as aligned "t_ms  value" rows, decimated to at
/// most `max_rows` evenly spaced samples so the output stays readable.
void print_series(const std::string& name, std::span<const sim::Sample> samples,
                  double value_scale = 1.0, std::size_t max_rows = 25);

/// Aligned table printer:
///     Table t{{"col-a", "col-b"}};
///     t.add_row({"1", "2.5"});
///     t.print();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  void print() const;

  /// Formats a double with fixed precision (helper for rows).
  [[nodiscard]] static std::string num(double v, int precision = 2);

 private:
  std::vector<std::vector<std::string>> rows_;  // rows_[0] is the header
};

/// "mean [min, max]" of a non-empty `xs`, each with `precision`
/// decimals, e.g. "34.2 [31.0, 38.5]".
[[nodiscard]] std::string spread(std::span<const double> xs,
                                 int precision = 1);

/// Writes a series as "time_ms,value" CSV. Returns false (and prints a
/// warning) if the file cannot be created.
bool write_series_csv(const std::string& path,
                      std::span<const sim::Sample> samples,
                      double value_scale = 1.0);

/// Prints the chronological log of fault transitions an injector applied
/// ("(none)" when the run was fault-free) — resilience runs record their
/// inputs next to their outputs so the report is self-describing.
void print_fault_log(std::span<const fault::AppliedFault> log);

/// Prints invariant-monitor results: a one-line all-clear with the check
/// count, or every violation with its timestamp and detail.
void print_violations(const fault::InvariantMonitor& monitor);

/// Convenience used by the bench binaries: when the environment variable
/// PHANTOM_TRACE_DIR is set, dump the series to
/// "$PHANTOM_TRACE_DIR/<experiment>_<series>.csv" for external plotting;
/// otherwise do nothing. Never fails the caller.
void maybe_dump_series(const std::string& experiment, const std::string& series,
                       std::span<const sim::Sample> samples,
                       double value_scale = 1.0);

}  // namespace phantom::exp
