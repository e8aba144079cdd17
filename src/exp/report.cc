#include "exp/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace phantom::exp {

void print_header(const std::string& experiment_id, const std::string& title) {
  std::printf("\n=== %s — %s ===\n", experiment_id.c_str(), title.c_str());
}

void print_series(const std::string& name,
                  std::span<const sim::Sample> samples, double value_scale,
                  std::size_t max_rows) {
  std::printf("-- %s --\n", name.c_str());
  if (samples.empty()) {
    std::printf("   (empty)\n");
    return;
  }
  const std::size_t stride =
      samples.size() <= max_rows ? 1 : samples.size() / max_rows;
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    std::printf("  t=%9.3fms  %10.3f\n", samples[i].time.milliseconds(),
                samples[i].value * value_scale);
  }
  const auto& last = samples.back();
  std::printf("  t=%9.3fms  %10.3f  (final)\n", last.time.milliseconds(),
              last.value * value_scale);
}

Table::Table(std::vector<std::string> header) {
  if (header.empty()) throw std::invalid_argument{"table needs columns"};
  rows_.push_back(std::move(header));
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != rows_[0].size()) {
    throw std::invalid_argument{"row width does not match header"};
  }
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::vector<std::size_t> width(rows_[0].size(), 0);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    std::printf(" ");
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      std::printf(" %-*s", static_cast<int>(width[c]), rows_[r][c].c_str());
    }
    std::printf("\n");
    if (r == 0) {
      std::printf(" ");
      for (std::size_t c = 0; c < width.size(); ++c) {
        std::printf(" %s", std::string(width[c], '-').c_str());
      }
      std::printf("\n");
    }
  }
}

bool write_series_csv(const std::string& path,
                      std::span<const sim::Sample> samples,
                      double value_scale) {
  std::ofstream out{path};
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << "time_ms,value\n";
  for (const sim::Sample& s : samples) {
    out << s.time.milliseconds() << ',' << s.value * value_scale << '\n';
  }
  return true;
}

void print_fault_log(std::span<const fault::AppliedFault> log) {
  std::printf("-- fault log --\n");
  if (log.empty()) {
    std::printf("   (none)\n");
    return;
  }
  for (const fault::AppliedFault& f : log) {
    std::printf("  t=%9.3fms  %s\n", f.time.milliseconds(),
                f.description.c_str());
  }
}

void print_violations(const fault::InvariantMonitor& monitor) {
  const auto& v = monitor.violations();
  if (v.empty()) {
    std::printf("-- invariants: OK (%llu checks, 0 violations) --\n",
                static_cast<unsigned long long>(monitor.checks_run()));
    return;
  }
  std::printf("-- invariants: %zu VIOLATION(S) in %llu checks --\n", v.size(),
              static_cast<unsigned long long>(monitor.checks_run()));
  for (const fault::InvariantViolation& iv : v) {
    std::printf("  t=%9.3fms  [%s] %s\n", iv.time.milliseconds(),
                iv.invariant.c_str(), iv.detail.c_str());
    if (!iv.recent_events.empty()) {
      std::printf("    flight recorder (last %zu events):\n",
                  iv.recent_events.size());
      for (const std::string& line : iv.recent_events) {
        std::printf("      %s\n", line.c_str());
      }
    }
  }
}

void maybe_dump_series(const std::string& experiment,
                       const std::string& series,
                       std::span<const sim::Sample> samples,
                       double value_scale) {
  const char* dir = std::getenv("PHANTOM_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return;
  write_series_csv(std::string{dir} + "/" + experiment + "_" + series + ".csv",
                   samples, value_scale);
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string spread(std::span<const double> xs, int precision) {
  double lo = xs.front(), hi = xs.front(), sum = 0.0;
  for (const double x : xs) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    sum += x;
  }
  return Table::num(sum / static_cast<double>(xs.size()), precision) + " [" +
         Table::num(lo, precision) + ", " + Table::num(hi, precision) + "]";
}

}  // namespace phantom::exp
