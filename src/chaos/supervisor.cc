#include "chaos/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "chaos/json.h"
#include "obs/json.h"

namespace phantom::chaos {

using obs::json_escape;

namespace {

volatile std::sig_atomic_t g_sigint = 0;

void handle_sigint(int) { g_sigint = g_sigint + 1; }

/// Installs the drain handler for the duration of a supervised run.
/// sa_flags deliberately omits SA_RESTART so a Ctrl-C interrupts
/// poll() immediately.
class SigintScope {
 public:
  SigintScope() {
    g_sigint = 0;
    struct sigaction sa = {};
    sa.sa_handler = handle_sigint;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGINT, &sa, &old_);
  }
  ~SigintScope() { ::sigaction(SIGINT, &old_, nullptr); }
  SigintScope(const SigintScope&) = delete;
  SigintScope& operator=(const SigintScope&) = delete;

 private:
  struct sigaction old_ = {};
};

/// The serial early-stop rule: walking the decided prefix in index
/// order, the trial at which the max_failures-th failure lands is the
/// last trial a serial search would have run. std::nullopt while the
/// prefix is still undecided or never accumulates enough failures.
[[nodiscard]] std::optional<int> failure_cutoff(
    const std::vector<std::optional<TrialResult>>& results,
    int max_failures) {
  int fails = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i]) return std::nullopt;
    if (results[i]->failed() && ++fails >= max_failures) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

[[nodiscard]] std::string checkpoint_header(const exp::Scenario& spec,
                                            std::uint64_t seed,
                                            std::size_t trials) {
  std::string out = "{\"phantom_chaos_checkpoint\": 1";
  out += ", \"scenario\": \"" + json_escape(to_string(spec.kind)) + "\"";
  out += ", \"algorithm\": \"" + json_escape(exp::to_string(spec.algorithm)) +
         "\"";
  out += ", \"sessions\": " + std::to_string(spec.sessions);
  out += ", \"rate_mbps\": " + fmt_double_exact(spec.rate_mbps);
  out += ", \"horizon_ns\": " + std::to_string(spec.horizon.nanoseconds());
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"trials\": " + std::to_string(trials);
  // Only emitted when armed, so checkpoints from overload-free searches
  // stay byte-identical to those written before the field existed.
  if (spec.overload) out += ", \"overload\": true";
  out += "}";
  return out;
}

/// Incremental JSONL checkpoint: header line describing the search,
/// then one row per completed trial, flushed as they land. Loading
/// validates the header and each row's plan spec against the current
/// search — a checkpoint from a different spec/seed is an error, not a
/// silent partial resume. A torn final line (crash mid-append) is
/// tolerated and overwritten by re-running that trial.
class Checkpoint {
 public:
  void open(const std::string& path, const exp::Scenario& spec,
            std::uint64_t seed, const std::vector<fault::FaultPlan>& plans,
            std::vector<std::optional<TrialResult>>& results, int& resumed) {
    const std::string header = checkpoint_header(spec, seed, plans.size());
    std::ifstream in{path};
    bool resuming = false;
    bool torn = false;
    std::streamoff last_good_end = 0;
    if (in) {
      std::string line;
      if (std::getline(in, line) && !line.empty()) {
        if (line != header) {
          throw std::runtime_error{
              "chaos checkpoint " + path +
              " was written by a different search;\n  file:    " + line +
              "\n  current: " + header};
        }
        resuming = true;
        last_good_end = in.tellg();
        int lineno = 1;
        while (std::getline(in, line)) {
          ++lineno;
          if (line.empty()) continue;
          std::string plan_spec;
          const auto row = parse_checkpoint_row(line, &plan_spec);
          if (!row) {
            // Torn write (crash mid-append) — drop the row, warn so the
            // re-run is visible, and keep resuming the rest.
            std::fprintf(stderr,
                         "chaos checkpoint %s: dropping unparseable row at "
                         "line %d (torn write?); its trial will re-run\n",
                         path.c_str(), lineno);
            torn = true;
            continue;
          }
          const auto [trial, result] = *row;
          if (trial < 0 || trial >= static_cast<int>(plans.size())) {
            throw std::runtime_error{
                "chaos checkpoint " + path + ": line " +
                std::to_string(lineno) + " names trial " +
                std::to_string(trial) + " of " +
                std::to_string(plans.size())};
          }
          if (plan_spec != plans[trial].to_spec()) {
            throw std::runtime_error{
                "chaos checkpoint " + path + ": trial " +
                std::to_string(trial) +
                " was generated from a different plan (stale seed?)"};
          }
          if (!results[trial]) ++resumed;
          results[trial] = result;
          // tellg() is -1 once EOF is hit (a final row with no newline);
          // keep the previous mark — resize may drop that row, but its
          // trial simply re-runs.
          if (const std::streamoff pos = in.tellg(); pos != -1) {
            last_good_end = pos;
          }
        }
      }
    }
    in.close();
    if (torn) {
      // Cut the torn tail off before appending: writing after a partial
      // row would fuse the re-run's row onto it, turning one lost trial
      // into two on the next resume. Trailing garbage after the last
      // parseable row goes with it.
      std::filesystem::resize_file(
          path, static_cast<std::uintmax_t>(last_good_end));
    }
    // A crash exactly between a row and its newline leaves a parseable
    // but unterminated last line; appending needs a fresh line either
    // way.
    bool unterminated = false;
    if (resuming) {
      std::ifstream tail{path, std::ios::binary};
      tail.seekg(0, std::ios::end);
      if (tail.tellg() > 0) {
        tail.seekg(-1, std::ios::end);
        char last = '\n';
        tail.get(last);
        unterminated = last != '\n';
      }
    }
    out_.open(path, resuming ? std::ios::app : std::ios::trunc);
    if (!out_) {
      throw std::runtime_error{"chaos checkpoint: cannot write " + path};
    }
    if (!resuming) out_ << header << "\n" << std::flush;
    if (unterminated) out_ << "\n" << std::flush;
  }

  void append(int trial, const std::string& plan_spec, const TrialResult& r) {
    if (!out_.is_open()) return;
    out_ << checkpoint_row(trial, plan_spec, r) << "\n" << std::flush;
  }

 private:
  std::ofstream out_;
};

}  // namespace

std::string checkpoint_row(int trial, const std::string& plan_spec,
                           const TrialResult& r) {
  std::string out = "{\"trial\": " + std::to_string(trial);
  out += ", \"plan\": \"" + json_escape(plan_spec) + "\"";
  out += ", \"verdict\": \"" + std::string{to_string(r.verdict)} + "\"";
  out += ", \"detail\": \"" + json_escape(r.detail) + "\"";
  out += ", \"events\": " + std::to_string(r.events);
  out += ", \"violations\": " + std::to_string(r.violations);
  out += ", \"reconverge_ns\": " +
         (r.reconverge_latency
              ? std::to_string(r.reconverge_latency->nanoseconds())
              : std::string{"null"});
  out += ", \"settled_share_mbps\": " + fmt_double_exact(r.settled_share_mbps);
  out += ", \"peak_queue_cells\": " + fmt_double_exact(r.peak_queue_cells);
  out += ", \"crash_signal\": \"" + json_escape(r.crash_signal) + "\"";
  out += ", \"exit_code\": " + std::to_string(r.exit_code);
  out += ", \"stderr_tail\": \"" + json_escape(r.stderr_tail) + "\"";
  // Last field, so parse_checkpoint_row's ordered scan reads it after
  // everything else (and rows from older checkpoints simply lack it).
  out += ", \"flight_recorder\": [";
  for (std::size_t i = 0; i < r.flight_recorder.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(r.flight_recorder[i]) + "\"";
  }
  out += "]}";
  return out;
}

std::optional<std::pair<int, TrialResult>> parse_checkpoint_row(
    const std::string& line, std::string* plan_spec) {
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return std::nullopt;
  }
  JsonLineReader reader{line};
  const auto trial = reader.find_int("trial");
  const auto plan = reader.find_string("plan");
  const auto verdict_name = reader.find_string("verdict");
  const auto detail = reader.find_string("detail");
  const auto events = reader.find_int("events");
  const auto violations = reader.find_int("violations");
  const auto reconverge = reader.find_token("reconverge_ns");
  const auto settled = reader.find_double("settled_share_mbps");
  const auto peak = reader.find_double("peak_queue_cells");
  const auto crash_signal = reader.find_string("crash_signal");
  const auto exit_code = reader.find_int("exit_code");
  const auto stderr_tail = reader.find_string("stderr_tail");
  if (!trial || !plan || !verdict_name || !detail || !events || !violations ||
      !reconverge || !settled || !peak || !crash_signal || !exit_code ||
      !stderr_tail) {
    return std::nullopt;
  }
  const auto verdict = verdict_from_string(*verdict_name);
  if (!verdict) return std::nullopt;

  TrialResult r;
  r.verdict = *verdict;
  r.detail = *detail;
  r.events = static_cast<std::uint64_t>(*events);
  r.violations = static_cast<std::size_t>(*violations);
  if (*reconverge != "null") {
    char* end = nullptr;
    const long long ns = std::strtoll(reconverge->c_str(), &end, 10);
    if (end != reconverge->c_str() + reconverge->size()) return std::nullopt;
    r.reconverge_latency = sim::Time::ns(ns);
  }
  r.settled_share_mbps = *settled;
  r.peak_queue_cells = *peak;
  r.crash_signal = *crash_signal;
  r.exit_code = static_cast<int>(*exit_code);
  r.stderr_tail = *stderr_tail;
  // Optional (rows written before the flight recorder existed lack it).
  if (auto flight = reader.find_string_array("flight_recorder")) {
    r.flight_recorder = std::move(*flight);
  }
  if (plan_spec != nullptr) *plan_spec = *plan;
  return std::make_pair(static_cast<int>(*trial), r);
}

Supervisor::Supervisor(exp::Scenario spec, std::uint64_t seed,
                       TrialOptions trial, std::optional<Baseline> baseline,
                       SupervisorOptions opt)
    : spec_{std::move(spec)},
      seed_{seed},
      trial_{std::move(trial)},
      baseline_{std::move(baseline)},
      opt_{std::move(opt)} {}

SupervisedOutcome Supervisor::run(const std::vector<fault::FaultPlan>& plans,
                                  int max_failures) {
  const int n = static_cast<int>(plans.size());
  SupervisedOutcome out;
  out.results.resize(plans.size());

  Checkpoint ckpt;
  if (!opt_.checkpoint_path.empty()) {
    ckpt.open(opt_.checkpoint_path, spec_, seed_, plans, out.results,
              out.resumed);
  }

  const int jobs = std::clamp(opt_.jobs, 1, 128);

  struct InFlight {
    int trial = 0;
    std::unique_ptr<IsolatedTrial> child;
    bool cancelled = false;  ///< killed for cutoff/abort — result discarded
  };
  std::vector<InFlight> inflight;

  const auto spawn_with_retry = [&](int trial) {
    const auto body =
        trial_body(spec_, seed_, plans[trial], trial_, baseline_);
    std::string err;
    int backoff_ms = std::max(1, opt_.retry_backoff_ms);
    for (int attempt = 0; attempt <= opt_.max_retries; ++attempt) {
      if (attempt > 0) {
        ::usleep(static_cast<useconds_t>(backoff_ms) * 1000);
        backoff_ms *= 2;
      }
      if (auto child = IsolatedTrial::spawn(body, opt_.isolate, err)) {
        return child;
      }
    }
    throw std::runtime_error{"chaos supervisor: cannot start trial " +
                             std::to_string(trial) + " after " +
                             std::to_string(opt_.max_retries + 1) +
                             " attempts (" + err + ")"};
  };

  SigintScope sigint_scope;
  int next = 0;

  while (true) {
    const auto cut = failure_cutoff(out.results, max_failures);
    while (g_sigint == 0 && static_cast<int>(inflight.size()) < jobs &&
           next < n && (!cut || next <= *cut)) {
      if (out.results[next]) {  // resumed from the checkpoint
        ++next;
        continue;
      }
      InFlight f;
      f.trial = next;
      f.child = spawn_with_retry(next);
      inflight.push_back(std::move(f));
      ++next;
    }
    if (inflight.empty()) break;  // nothing running and nothing launchable

    // Wait for activity: any pipe readable, the nearest kill deadline,
    // or EINTR from Ctrl-C.
    std::vector<pollfd> fds;
    fds.reserve(inflight.size() * 2);
    for (const auto& f : inflight) {
      if (f.child->result_fd() >= 0) {
        fds.push_back({f.child->result_fd(), POLLIN, 0});
      }
      if (f.child->stderr_fd() >= 0) {
        fds.push_back({f.child->stderr_fd(), POLLIN, 0});
      }
    }
    int timeout_ms = -1;
    const std::int64_t now = monotonic_ms();
    for (const auto& f : inflight) {
      if (const auto deadline = f.child->deadline_ms()) {
        const std::int64_t left = std::max<std::int64_t>(0, *deadline - now);
        const int left_ms = static_cast<int>(std::min<std::int64_t>(
            left, std::numeric_limits<int>::max() / 2));
        timeout_ms = timeout_ms < 0 ? left_ms : std::min(timeout_ms, left_ms);
      }
    }
    ::poll(fds.data(), fds.size(), timeout_ms);

    if (g_sigint >= 2) {
      // Second Ctrl-C: the user wants out now. Kill in-flight children;
      // their trials are simply not recorded and resume re-runs them.
      for (auto& f : inflight) {
        f.cancelled = true;
        f.child->kill_child(/*timed_out=*/false);
      }
    }

    const std::int64_t after_poll = monotonic_ms();
    for (auto it = inflight.begin(); it != inflight.end();) {
      const auto deadline = it->child->deadline_ms();
      if (deadline && after_poll >= *deadline) {
        it->child->kill_child(/*timed_out=*/true);
      }
      if (it->child->pump()) {
        if (!it->cancelled) {
          TrialResult r = it->child->result();
          ckpt.append(it->trial, plans[it->trial].to_spec(), r);
          out.results[it->trial] = std::move(r);
        }
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }

    // A freshly decided cutoff makes speculative children pointless.
    if (const auto decided = failure_cutoff(out.results, max_failures)) {
      for (auto& f : inflight) {
        if (f.trial > *decided) {
          f.cancelled = true;
          f.child->kill_child(/*timed_out=*/false);
        }
      }
    }
  }

  // Serial semantics: nothing after the cutoff exists, even if a
  // speculative child finished it first (or a checkpoint carried it).
  if (const auto cut = failure_cutoff(out.results, max_failures)) {
    for (int i = *cut + 1; i < n; ++i) out.results[i].reset();
  }
  out.interrupted = g_sigint != 0;
  return out;
}

}  // namespace phantom::chaos
