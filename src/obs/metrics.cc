#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/json.h"

namespace phantom::obs {

const char* to_string(MetricType type) {
  switch (type) {
    case MetricType::kCounter:   return "counter";
    case MetricType::kGauge:     return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_{std::move(upper_bounds)}, counts_(bounds_.size() + 1, 0) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument{"histogram bounds must be sorted"};
  }
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

void Registry::add(Entry entry) {
  if (entry.def.name.empty()) {
    throw std::invalid_argument{"metric name must not be empty"};
  }
  if (!names_.insert(entry.def.name).second) {
    throw std::invalid_argument{"duplicate metric name: " + entry.def.name};
  }
  entries_.push_back(std::move(entry));
}

void Registry::add_counter(MetricDef def, CounterFn sample) {
  def.type = MetricType::kCounter;
  add(Entry{std::move(def), std::move(sample), {}, nullptr});
}

void Registry::add_gauge(MetricDef def, GaugeFn sample) {
  def.type = MetricType::kGauge;
  add(Entry{std::move(def), {}, std::move(sample), nullptr});
}

void Registry::add_histogram(MetricDef def, const Histogram* hist) {
  if (hist == nullptr) {
    throw std::invalid_argument{"null histogram: " + def.name};
  }
  def.type = MetricType::kHistogram;
  add(Entry{std::move(def), {}, {}, hist});
}

std::vector<std::size_t> Registry::sorted() const {
  std::vector<std::size_t> idx(entries_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return entries_[a].def.name < entries_[b].def.name;
  });
  return idx;
}

std::vector<const MetricDef*> Registry::defs() const {
  std::vector<const MetricDef*> out;
  out.reserve(entries_.size());
  for (const std::size_t i : sorted()) out.push_back(&entries_[i].def);
  return out;
}

std::string Registry::snapshot_json(sim::Time now) const {
  std::string out = "{\"time_ns\":";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, now.nanoseconds());
  out += buf;
  out += ",\"metrics\":[";
  bool first = true;
  for (const std::size_t i : sorted()) {
    const Entry& e = entries_[i];
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, e.def.name);
    out += "\",\"id\":\"";
    append_escaped(out, e.def.id);
    out += "\",\"type\":\"";
    out += to_string(e.def.type);
    out += "\",\"unit\":\"";
    append_escaped(out, e.def.unit);
    out += "\",\"component\":\"";
    append_escaped(out, e.def.component);
    out += "\",\"value\":";
    switch (e.def.type) {
      case MetricType::kCounter:
        append_u64(out, e.counter());
        break;
      case MetricType::kGauge:
        append_double(out, e.gauge());
        break;
      case MetricType::kHistogram: {
        out += "{\"count\":";
        append_u64(out, e.hist->count());
        out += ",\"sum\":";
        append_double(out, e.hist->sum());
        out += ",\"buckets\":[";
        const auto& bounds = e.hist->bounds();
        const auto& counts = e.hist->counts();
        for (std::size_t b = 0; b < counts.size(); ++b) {
          if (b > 0) out += ',';
          out += "{\"le\":";
          if (b < bounds.size()) {
            append_double(out, bounds[b]);
          } else {
            out += "\"inf\"";
          }
          out += ",\"count\":";
          append_u64(out, counts[b]);
          out += '}';
        }
        out += "]}";
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Registry::csv_header() { return "time_ms,name,type,unit,value\n"; }

std::string Registry::snapshot_csv(sim::Time now) const {
  std::string time_ms;
  append_double(time_ms, now.milliseconds());
  std::string out;
  const auto row = [&](const std::string& name, const char* type,
                       const std::string& unit, const std::string& value) {
    out += time_ms;
    out += ',';
    out += name;
    out += ',';
    out += type;
    out += ',';
    out += unit;
    out += ',';
    out += value;
    out += '\n';
  };
  for (const std::size_t i : sorted()) {
    const Entry& e = entries_[i];
    std::string value;
    switch (e.def.type) {
      case MetricType::kCounter:
        append_u64(value, e.counter());
        row(e.def.name, "counter", e.def.unit, value);
        break;
      case MetricType::kGauge:
        append_double(value, e.gauge());
        row(e.def.name, "gauge", e.def.unit, value);
        break;
      case MetricType::kHistogram: {
        append_u64(value, e.hist->count());
        row(e.def.name + ".count", "histogram", e.def.unit, value);
        value.clear();
        append_double(value, e.hist->sum());
        row(e.def.name + ".sum", "histogram", e.def.unit, value);
        const auto& bounds = e.hist->bounds();
        const auto& counts = e.hist->counts();
        for (std::size_t b = 0; b < counts.size(); ++b) {
          std::string bucket = e.def.name + ".le_";
          if (b < bounds.size()) {
            append_double(bucket, bounds[b]);
          } else {
            bucket += "inf";
          }
          value.clear();
          append_u64(value, counts[b]);
          row(bucket, "histogram", e.def.unit, value);
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace phantom::obs
