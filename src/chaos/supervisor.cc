#include "chaos/supervisor.h"

#include <signal.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
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
            std::vector<std::optional<TrialResult>>& results) {
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

SupervisedOutcome supervise(const exp::Scenario& spec,
                            const SearchOptions& opt, const Baseline& baseline,
                            const std::vector<fault::FaultPlan>& plans) {
  const int n = static_cast<int>(plans.size());
  SupervisedOutcome out;
  out.results.resize(plans.size());

  Checkpoint ckpt;
  if (!opt.checkpoint.empty()) {
    ckpt.open(opt.checkpoint, spec, opt.seed, plans, out.results);
  }
  std::vector<bool> loaded(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    loaded[i] = out.results[i].has_value();
  }

  const int jobs = std::clamp(opt.jobs, 1, 128);

  struct InFlight {
    int trial = 0;
    std::unique_ptr<IsolatedTrial> child;
    bool cancelled = false;  ///< killed for cutoff/abort — result discarded
  };
  std::vector<InFlight> inflight;

  SigintScope sigint_scope;
  int next = 0;

  while (true) {
    const auto cut = failure_cutoff(out.results, opt.max_failures);
    while (g_sigint == 0 && static_cast<int>(inflight.size()) < jobs &&
           next < n && (!cut || next <= *cut)) {
      if (out.results[next]) {  // resumed from the checkpoint
        ++next;
        continue;
      }
      InFlight f;
      f.trial = next;
      f.child = spawn_with_retry(
          trial_body(spec, opt.seed, plans[next], opt.trial, baseline),
          opt.isolation);
      inflight.push_back(std::move(f));
      ++next;
    }
    if (inflight.empty()) break;  // nothing running and nothing launchable

    // Wait for activity: any pipe readable, the nearest kill deadline,
    // or EINTR from Ctrl-C.
    std::vector<IsolatedTrial*> children;
    for (const auto& f : inflight) children.push_back(f.child.get());
    wait_any(children);

    if (g_sigint >= 2) {
      // Second Ctrl-C: the user wants out now. Kill in-flight children;
      // their trials are simply not recorded and resume re-runs them.
      for (auto& f : inflight) {
        f.cancelled = true;
        f.child->kill_child(/*timed_out=*/false);
      }
    }

    for (auto it = inflight.begin(); it != inflight.end();) {
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
    if (const auto decided = failure_cutoff(out.results, opt.max_failures)) {
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
  if (const auto cut = failure_cutoff(out.results, opt.max_failures)) {
    for (int i = *cut + 1; i < n; ++i) out.results[i].reset();
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    out.resumed += loaded[i] && out.results[i] ? 1 : 0;
  }
  out.interrupted = g_sigint != 0;
  return out;
}

}  // namespace phantom::chaos
