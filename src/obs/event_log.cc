#include "obs/event_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "obs/json.h"

namespace phantom::obs {
namespace {

/// Smallest power of two >= n (and >= 16: a flight recorder smaller
/// than that records nothing useful).
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

/// Microseconds with nanosecond precision — the Chrome trace `ts` unit.
void append_ts_us(std::string& out, sim::Time t) {
  const std::int64_t ns = t.nanoseconds();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000));
  out += buf;
}

/// Whether an event belongs on the per-VC track rather than its port's.
bool vc_scoped(const Event& e) {
  switch (e.kind) {
    case EventKind::kRmForward:
    case EventKind::kRmBackward:
    case EventKind::kPolicerVerdict:
    case EventKind::kCacRefusal:
    case EventKind::kSourceRate:
      return e.vc >= 0;
    default:
      return false;
  }
}

/// The pid of the synthetic "VC sessions" process in the Chrome trace
/// (real switch nodes are int16, so this can never collide).
constexpr std::int64_t kVcPid = 100'000;

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kCellEnqueue:    return "cell_enqueue";
    case EventKind::kCellDrop:       return "cell_drop";
    case EventKind::kRmForward:      return "rm_forward";
    case EventKind::kRmBackward:     return "rm_backward";
    case EventKind::kPolicerVerdict: return "policer_verdict";
    case EventKind::kCacRefusal:     return "cac_refusal";
    case EventKind::kFaultArmed:     return "fault_armed";
    case EventKind::kFaultFired:     return "fault_fired";
    case EventKind::kFaultRecovered: return "fault_recovered";
    case EventKind::kRateUpdate:     return "rate_update";
    case EventKind::kSourceRate:     return "source_rate";
  }
  return "unknown";
}

const char* to_string(Category cat) {
  switch (cat) {
    case Category::kCell:       return "cell";
    case Category::kRm:         return "rm";
    case Category::kPolicer:    return "policer";
    case Category::kAdmission:  return "admission";
    case Category::kFault:      return "fault";
    case Category::kController: return "controller";
  }
  return "unknown";
}

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kQueueLimit:     return "queue_limit";
    case DropReason::kClpThreshold:   return "clp_threshold";
    case DropReason::kBufferOverflow: return "buffer_overflow";
    case DropReason::kBufferEpd:      return "epd";
    case DropReason::kBufferPpd:      return "ppd";
    case DropReason::kBufferShed:     return "shed";
  }
  return "unknown";
}

std::optional<Category> category_from_string(std::string_view name) {
  for (const Category c :
       {Category::kCell, Category::kRm, Category::kPolicer,
        Category::kAdmission, Category::kFault, Category::kController}) {
    if (name == to_string(c)) return c;
  }
  return std::nullopt;
}

Category category_of(EventKind kind) {
  switch (kind) {
    case EventKind::kCellEnqueue:
    case EventKind::kCellDrop:
      return Category::kCell;
    case EventKind::kRmForward:
    case EventKind::kRmBackward:
      return Category::kRm;
    case EventKind::kPolicerVerdict:
      return Category::kPolicer;
    case EventKind::kCacRefusal:
      return Category::kAdmission;
    case EventKind::kFaultArmed:
    case EventKind::kFaultFired:
    case EventKind::kFaultRecovered:
      return Category::kFault;
    case EventKind::kRateUpdate:
    case EventKind::kSourceRate:
      return Category::kController;
  }
  return Category::kCell;
}

EventLog::EventLog(std::size_t capacity)
    : ring_(round_up_pow2(capacity)), mask_{ring_.size() - 1} {
  labels_.emplace_back();  // id 0 = no label
}

std::uint16_t EventLog::intern(std::string_view label) {
  const auto it = label_ids_.find(std::string{label});
  if (it != label_ids_.end()) return it->second;
  if (labels_.size() > 0xFFFF) return 0;  // table full: drop the label
  const auto id = static_cast<std::uint16_t>(labels_.size());
  labels_.emplace_back(label);
  label_ids_.emplace(labels_.back(), id);
  return id;
}

const std::string& EventLog::label(std::uint16_t id) const {
  return id < labels_.size() ? labels_[id] : labels_[0];
}

void EventLog::set_node_name(std::int16_t node, std::string name) {
  node_names_[node] = std::move(name);
}

void EventLog::clear() { head_ = 0; }

std::vector<std::uint64_t> EventLog::time_order() const {
  const std::uint64_t cap = capacity();
  std::vector<std::uint64_t> order;
  order.reserve(size());
  for (std::uint64_t i = head_ < cap ? 0 : head_ - cap; i < head_; ++i) {
    order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](std::uint64_t a, std::uint64_t b) {
                     return ring_[a & mask_].time < ring_[b & mask_].time;
                   });
  return order;
}

std::string EventLog::event_json(const Event& e) const {
  std::string out;
  out.reserve(160);
  out += "{\"t_ns\":";
  append_i64(out, e.time.nanoseconds());
  out += ",\"kind\":\"";
  out += to_string(e.kind);
  out += "\",\"cat\":\"";
  out += to_string(category_of(e.kind));
  out += '"';
  if (e.node >= 0) {
    out += ",\"node\":";
    append_i64(out, e.node);
  }
  if (e.port >= 0) {
    out += ",\"port\":";
    append_i64(out, e.port);
  }
  if (e.vc >= 0) {
    out += ",\"vc\":";
    append_i64(out, e.vc);
  }
  switch (e.kind) {
    case EventKind::kCellEnqueue:
      out += ",\"queue_cells\":";
      append_double(out, e.a);
      break;
    case EventKind::kCellDrop:
      out += ",\"reason\":\"";
      out += to_string(static_cast<DropReason>(e.detail));
      out += "\",\"queue_cells\":";
      append_double(out, e.a);
      break;
    case EventKind::kRmForward:
    case EventKind::kRmBackward:
      out += ",\"er_mbps\":";
      append_double(out, e.a);
      out += ",\"ccr_mbps\":";
      append_double(out, e.b);
      out += ",\"fair_share_mbps\":";
      append_double(out, e.c);
      break;
    case EventKind::kPolicerVerdict:
      out += ",\"verdict\":\"";
      out += e.detail == 2 ? "drop" : "tag";
      out += '"';
      break;
    case EventKind::kCacRefusal:
      out += ",\"reason_code\":";
      append_u64(out, e.detail);
      out += ",\"mcr_mbps\":";
      append_double(out, e.a);
      break;
    case EventKind::kFaultArmed:
    case EventKind::kFaultFired:
    case EventKind::kFaultRecovered:
      out += ",\"what\":\"";
      append_escaped(out, label(e.label));
      out += '"';
      break;
    case EventKind::kRateUpdate:
      out += ",\"fair_share_mbps\":";
      append_double(out, e.a);
      break;
    case EventKind::kSourceRate:
      out += ",\"acr_mbps\":";
      append_double(out, e.a);
      break;
  }
  out += '}';
  return out;
}

std::string EventLog::to_jsonl(const Filter& filter) const {
  std::string out;
  for_each([&](const Event& e) {
    if (!filter.matches(e)) return;
    out += event_json(e);
    out += '\n';
  });
  return out;
}

std::vector<std::string> EventLog::tail_jsonl(std::size_t n,
                                              const Filter& filter) const {
  std::vector<std::string> lines;
  for_each([&](const Event& e) {
    if (filter.matches(e)) lines.push_back(event_json(e));
  });
  if (lines.size() > n) lines.erase(lines.begin(), lines.end() - n);
  return lines;
}

std::string EventLog::to_chrome_trace() const {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& obj) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    out += obj;
  };

  // Track metadata first: name every process/thread a held event uses.
  std::set<std::int16_t> nodes;
  std::map<std::int16_t, std::set<std::int16_t>> ports;
  std::set<std::int32_t> vcs;
  for_each([&](const Event& e) {
    if (vc_scoped(e)) {
      vcs.insert(e.vc);
      return;
    }
    const std::int16_t node = e.node >= 0 ? e.node : std::int16_t{0};
    nodes.insert(node);
    ports[node].insert(e.port >= 0 ? e.port : std::int16_t{0});
  });
  for (const std::int16_t node : nodes) {
    std::string meta = "{\"ph\":\"M\",\"pid\":";
    append_i64(meta, node);
    meta += ",\"name\":\"process_name\",\"args\":{\"name\":\"";
    const auto it = node_names_.find(node);
    if (it != node_names_.end()) {
      append_escaped(meta, it->second);
    } else {
      meta += "node";
      append_i64(meta, node);
    }
    meta += "\"}}";
    emit(meta);
    for (const std::int16_t port : ports[node]) {
      std::string tmeta = "{\"ph\":\"M\",\"pid\":";
      append_i64(tmeta, node);
      tmeta += ",\"tid\":";
      append_i64(tmeta, port);
      tmeta += ",\"name\":\"thread_name\",\"args\":{\"name\":\"port";
      append_i64(tmeta, port);
      tmeta += "\"}}";
      emit(tmeta);
    }
  }
  if (!vcs.empty()) {
    std::string meta = "{\"ph\":\"M\",\"pid\":";
    append_i64(meta, kVcPid);
    meta += ",\"name\":\"process_name\",\"args\":{\"name\":\"VC sessions\"}}";
    emit(meta);
    for (const std::int32_t vc : vcs) {
      std::string tmeta = "{\"ph\":\"M\",\"pid\":";
      append_i64(tmeta, kVcPid);
      tmeta += ",\"tid\":";
      append_i64(tmeta, vc);
      tmeta += ",\"name\":\"thread_name\",\"args\":{\"name\":\"vc";
      append_i64(tmeta, vc);
      tmeta += "\"}}";
      emit(tmeta);
    }
  }

  for_each([&](const Event& e) {
    std::string obj = "{\"ph\":\"";
    const bool counter =
        e.kind == EventKind::kRateUpdate || e.kind == EventKind::kSourceRate;
    obj += counter ? "C" : "i";
    obj += "\",\"pid\":";
    if (vc_scoped(e)) {
      append_i64(obj, kVcPid);
      obj += ",\"tid\":";
      append_i64(obj, e.vc);
    } else {
      append_i64(obj, e.node >= 0 ? e.node : 0);
      obj += ",\"tid\":";
      append_i64(obj, e.port >= 0 ? e.port : 0);
    }
    obj += ",\"ts\":";
    append_ts_us(obj, e.time);
    obj += ",\"cat\":\"";
    obj += to_string(category_of(e.kind));
    obj += "\",\"name\":\"";
    if (e.kind == EventKind::kRateUpdate) {
      // Distinct counter series per port: Chrome keys counters by
      // (pid, name), and every controlled port has its own fair share.
      obj += "fair_share.port";
      append_i64(obj, e.port >= 0 ? e.port : 0);
      obj += "\",\"args\":{\"mbps\":";
      append_double(obj, e.a);
      obj += "}}";
    } else if (e.kind == EventKind::kSourceRate) {
      obj += "acr.vc";
      append_i64(obj, e.vc >= 0 ? e.vc : 0);
      obj += "\",\"args\":{\"mbps\":";
      append_double(obj, e.a);
      obj += "}}";
    } else {
      obj += to_string(e.kind);
      obj += "\",\"s\":\"t\",\"args\":";
      // The JSONL object doubles as the instant's args payload.
      obj += event_json(e);
      obj += '}';
    }
    emit(obj);
  });
  out += "\n]}\n";
  return out;
}

}  // namespace phantom::obs
