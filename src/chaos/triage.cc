#include "chaos/triage.h"

#include <cctype>
#include <set>

namespace phantom::chaos {
namespace {

[[nodiscard]] bool is_hex_digit(char c) {
  return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

/// Lines worth fingerprinting from assert/sanitizer output, in rough
/// saliency order (the first match in the tail wins).
constexpr const char* kSalientMarkers[] = {
    "ERROR: AddressSanitizer",  // ASan header carries the bug kind
    "ERROR: LeakSanitizer",
    "WARNING: ThreadSanitizer",
    "runtime error:",           // UBSan
    "Assertion",                // glibc assert
    "assertion",
    "terminate called",         // uncaught C++ exception
    "FATAL",
};

}  // namespace

std::string normalize_failure_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '0' && i + 2 < text.size() && text[i + 1] == 'x' &&
        is_hex_digit(text[i + 2])) {
      out += '@';
      i += 2;
      while (i < text.size() && is_hex_digit(text[i])) ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      out += '#';
      while (i < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[i])) != 0 ||
              text[i] == '.')) {
        ++i;
      }
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!out.empty() && out.back() != ' ') out += ' ';
      ++i;
      continue;
    }
    out += c;
    ++i;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string salient_stderr_line(const std::string& stderr_tail) {
  std::size_t start = 0;
  while (start <= stderr_tail.size()) {
    std::size_t end = stderr_tail.find('\n', start);
    if (end == std::string::npos) end = stderr_tail.size();
    const std::string line = stderr_tail.substr(start, end - start);
    for (const char* marker : kSalientMarkers) {
      if (line.find(marker) != std::string::npos) return line;
    }
    if (end == stderr_tail.size()) break;
    start = end + 1;
  }
  return {};
}

std::string failure_fingerprint(const TrialResult& r) {
  std::string fp = to_string(r.verdict);
  if (r.verdict == Verdict::kProcessCrash) {
    fp += "|" + (r.crash_signal.empty()
                     ? "exit:" + std::to_string(r.exit_code)
                     : r.crash_signal);
    const std::string salient = salient_stderr_line(r.stderr_tail);
    fp += "|" + normalize_failure_text(salient.empty() ? r.detail : salient);
  } else {
    fp += "||" + normalize_failure_text(r.detail);
  }
  return fp;
}

std::string failure_fingerprint(const TrialResult& r,
                                const fault::FaultPlan* plan) {
  if (plan != nullptr && r.verdict != Verdict::kProcessCrash) {
    std::set<std::size_t> adversaries;
    for (const fault::FaultEvent& e : plan->events) {
      if (e.kind == fault::FaultEvent::Kind::kMisbehave) {
        adversaries.insert(e.target.index);
      }
    }
    if (!adversaries.empty()) {
      return std::string{to_string(r.verdict)} + "|misbehave|" +
             std::to_string(adversaries.size());
    }
    // Checked after misbehave (defection dominates: overload pressure
    // from a defector is still the defector's class) and before
    // rm_blackhole, so a plan mixing overload and feedback loss groups
    // by the resource-exhaustion pressure that actually sheds cells.
    std::size_t overload_events = 0;
    for (const fault::FaultEvent& e : plan->events) {
      if (e.kind == fault::FaultEvent::Kind::kMemSqueeze ||
          e.kind == fault::FaultEvent::Kind::kVcStorm) {
        ++overload_events;
      }
    }
    if (overload_events > 0) {
      return std::string{to_string(r.verdict)} + "|overload|" +
             std::to_string(overload_events);
    }
    std::size_t blackholes = 0;
    for (const fault::FaultEvent& e : plan->events) {
      if (e.kind == fault::FaultEvent::Kind::kRmBlackhole) ++blackholes;
    }
    if (blackholes > 0) {
      return std::string{to_string(r.verdict)} + "|rm_blackhole|" +
             std::to_string(blackholes);
    }
  }
  return failure_fingerprint(r);
}

std::vector<TriagedClass> triage_failures(
    const std::vector<std::tuple<int, const TrialResult*,
                                 const fault::FaultPlan*>>& failures) {
  std::vector<TriagedClass> classes;
  for (const auto& [trial, result, plan] : failures) {
    const std::string fp = failure_fingerprint(*result, plan);
    TriagedClass* found = nullptr;
    for (auto& c : classes) {
      if (c.fingerprint == fp) {
        found = &c;
        break;
      }
    }
    if (found == nullptr) {
      TriagedClass c;
      c.fingerprint = fp;
      c.verdict = result->verdict;
      c.signal = result->crash_signal;
      c.sample_detail = result->detail;
      c.flight_recorder = result->flight_recorder;
      classes.push_back(std::move(c));
      found = &classes.back();
    }
    found->trials.push_back(trial);
  }
  return classes;
}

}  // namespace phantom::chaos
