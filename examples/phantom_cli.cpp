// phantom_cli — scripted scenario runner for the Phantom library.
//
// Usage:
//   phantom_cli [--scenario=bottleneck|parking|onoff|tcp]
//               [--algorithm=phantom|eprca|aprc|capc|erica]
//               (--scenario=tcp: --algorithm=phantom|droptail)
//               [--sessions=N] [--rate-mbps=R] [--duration-ms=D]
//               [--seed=S] [--csv=PREFIX] [--fault-plan=SPEC]
//               [--validate-only]
//               [--adversaries=N] [--adversary-mode=greedy|forge|partial]
//               [--compliance=C] [--policing=off|monitor|tag|drop]
//               [--crm=N] [--cdf=F] [--adtf=MS] [--no-feedback-decay]
//               [--overload] [--buffer-cells=N] [--no-epd] [--mcr-mbps=R]
//               [--perf-report]
//               [--metrics-out=FILE] [--metrics-interval=MS]
//               [--trace-out=FILE] [--trace-jsonl=FILE]
//               [--trace-capacity=N] [--trace-vc=N] [--trace-node=N]
//               [--trace-port=N] [--trace-category=CAT]
//               [--metrics-doc]
//
// Runs the scenario, prints the per-session goodput table, fairness
// index and queue statistics, and (with --csv) writes the fair-share
// and queue time series for external plotting. Exit code 0 on success,
// 2 on bad arguments: a numeric value must be one complete number
// with nothing after it (see exp::parse_number).
//
// --fault-plan injects scripted faults (ABR scenarios only) and arms the
// invariant monitor; the report then also carries the fault log, any
// invariant violations, and the bottleneck's time-to-reconvergence.
// SPEC grammar (see fault/fault_plan.h): events split on ';', e.g.
//   --fault-plan="outage:trunk0:250:50;restart:trunk0:450"
// --fault-plan=@PATH reads the spec from a file instead; a missing,
// unreadable or empty file is a hard error (exit 2), never a silent
// run with no faults.
//
// --validate-only parses the plan and resolves every target against the
// scenario topology without running the simulation: exit 0 if the plan
// would load, 1 with the parser/validator message (1-based event
// positions) on stderr otherwise.
//
// --adversaries=N makes the last N sessions misbehave per
// --adversary-mode (ER-ignoring greedy, RM-forging, or partially
// compliant with --compliance). --policing arms a per-VC GCRA policer
// at every switch ingress (see atm/policer.h) in the given action mode.
//
// --crm/--cdf/--adtf tune the TM 4.0 feedback-loss backoff (missing-RM
// threshold, cutoff decrease factor, stale-ACR deadline; see
// atm/abr_params.h) for every session; --no-feedback-decay disables the
// backoff entirely — the ablation that shows why it exists. All four
// are accepted by --validate-only (a replayed chaos plan carries the
// same source configuration).
//
// --overload arms overload protection: every switch gets a bounded cell
// memory (frame-aware EPD/PPD discard; --buffer-cells sets the budget,
// --no-epd is the early-discard ablation) and admission control, and the
// report gains refusal/discard counters plus the degradation level.
// --mcr-mbps gives every session that minimum cell rate (booked by CAC,
// protected by the buffer manager). memsqueeze/vcstorm fault plans
// require --overload — --validate-only rejects them without it.
//
// Observability (ABR scenarios; see docs/OPERATIONS.md and
// docs/METRICS.md): --metrics-out snapshots every registered metric at
// the end of the run — one JSON object per snapshot line, or long-format
// CSV when FILE ends in ".csv". --metrics-interval=MS adds a periodic
// snapshot every MS simulated milliseconds to the same file.
// --trace-out writes the structured event log as Chrome trace-event
// JSON (load it in https://ui.perfetto.dev or chrome://tracing);
// --trace-jsonl writes it as one JSON object per event, optionally
// filtered by --trace-vc / --trace-node / --trace-port /
// --trace-category (cell|rm|policer|admission|fault|controller).
// --trace-capacity sizes the event ring (default 65536, rounded up to a
// power of two; once full the oldest events are overwritten).
// --metrics-doc prints the canonical metric reference (the generated
// docs/METRICS.md) and exits without running a scenario.
//
// --perf-report appends kernel statistics after the scenario report:
// events executed, wall-clock, events/sec, the peak pending-event count
// (the event heap's high-water mark; a busy link counts once, however
// many cells it has in flight) and the inline-callback heap-
// fallback count — nonzero means some model's capture outgrew the
// kernel's inline buffer (see sim/inline_function.h).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>

#include "atm/abr_source.h"
#include "atm/policer.h"
#include "chaos/scenario.h"
#include "exp/factories.h"
#include "exp/metrics_doc.h"
#include "exp/parse_number.h"
#include "exp/probes.h"
#include "exp/report.h"
#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "stats/fairness.h"
#include "stats/recovery.h"
#include "tcp/phantom_policies.h"
#include "tcp/tcp_network.h"
#include "topo/abr_network.h"
#include "topo/workload.h"

namespace {

using namespace phantom;
using exp::parse_number;
using sim::Rate;
using sim::Time;

struct Args {
  std::string scenario = "bottleneck";
  std::string algorithm = "phantom";
  int sessions = 3;
  double rate_mbps = 150.0;
  double duration_ms = 600.0;
  std::uint64_t seed = 1;
  std::string csv;         // prefix; empty = no dump
  std::string fault_plan;  // fault::FaultPlan::parse spec; empty = none
  bool validate_only = false;        // parse + validate plan, don't run
  int adversaries = 0;               // last N sessions misbehave
  std::string adversary_mode = "greedy";  // greedy | forge | partial
  double compliance = 0.5;           // partial mode: fraction of ER honoured
  std::string policing = "off";      // off | monitor | tag | drop
  int crm = 32;                      // missing-RM threshold (FRMs)
  double cdf = 0.5;                  // cutoff decrease factor per FRM
  double adtf_ms = 250.0;            // stale-ACR deadline
  bool feedback_decay = true;        // --no-feedback-decay ablation
  bool overload = false;             // bounded buffers + admission control
  long buffer_cells = 0;             // per-switch budget; 0 = default
  bool epd = true;                   // --no-epd ablation
  double mcr_mbps = 0.0;             // per-session minimum cell rate
  bool perf_report = false;          // kernel statistics after the run
  std::string metrics_out;           // registry snapshots; ".csv" = CSV
  double metrics_interval_ms = 0.0;  // 0 = final snapshot only
  std::string trace_out;             // Chrome trace-event JSON
  std::string trace_jsonl;           // one JSON object per event
  long trace_capacity = 1 << 16;     // event ring size (rounded to 2^k)
  int trace_vc = -1;                 // JSONL filter axes; -1 / "" = all
  int trace_node = -1;
  int trace_port = -1;
  std::string trace_category;
  bool metrics_doc = false;          // print metric reference and exit

  [[nodiscard]] bool wants_trace() const {
    return !trace_out.empty() || !trace_jsonl.empty();
  }
  [[nodiscard]] bool wants_obs() const {
    return wants_trace() || !metrics_out.empty();
  }
};

/// Kernel statistics for --perf-report. Wall-clock covers simulation
/// execution only (not topology construction or report printing).
class PerfReporter {
 public:
  explicit PerfReporter(const sim::Simulator& sim)
      : sim_{&sim}, start_{std::chrono::steady_clock::now()} {}

  void print() const {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const auto executed = sim_->events_executed();
    std::printf(
        "\nperf: %llu events in %.3f s wall (%.3g events/sec)\n"
        "perf: peak pending events %zu, inline-callback heap fallbacks "
        "%llu\n",
        static_cast<unsigned long long>(executed), wall_s,
        static_cast<double>(executed) / wall_s, sim_->peak_pending_count(),
        static_cast<unsigned long long>(
            sim::EventQueue::Callback::heap_fallbacks()));
  }

 private:
  const sim::Simulator* sim_;
  std::chrono::steady_clock::time_point start_;
};

/// Resolves --fault-plan=@PATH to the file's contents. The file is the
/// authoritative fault schedule: failing to read it must kill the run,
/// not degrade it into a fault-free simulation whose clean report would
/// be mistaken for resilience.
std::optional<std::string> read_fault_plan_file(const std::string& path) {
  if (path.empty()) {
    std::fprintf(stderr, "--fault-plan=@ expects a file path after '@'\n");
    return std::nullopt;
  }
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "cannot read fault plan file '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) {
    std::fprintf(stderr, "error reading fault plan file '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::string spec = contents.str();
  const auto first = spec.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    std::fprintf(stderr, "fault plan file '%s' is empty\n", path.c_str());
    return std::nullopt;
  }
  spec = spec.substr(first, spec.find_last_not_of(" \t\r\n") - first + 1);
  return spec;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate-only") {  // bare flag
      a.validate_only = true;
      continue;
    }
    if (arg == "--no-feedback-decay") {  // bare flag
      a.feedback_decay = false;
      continue;
    }
    if (arg == "--perf-report") {  // bare flag
      a.perf_report = true;
      continue;
    }
    if (arg == "--overload") {  // bare flag
      a.overload = true;
      continue;
    }
    if (arg == "--no-epd") {  // bare flag
      a.epd = false;
      continue;
    }
    if (arg == "--metrics-doc") {  // bare flag
      a.metrics_doc = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s (want --key=value)\n",
                   arg.c_str());
      return std::nullopt;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    try {
      if (key == "scenario") a.scenario = val;
      else if (key == "algorithm") a.algorithm = val;
      else if (key == "sessions") a.sessions = parse_number<int>(val);
      else if (key == "rate-mbps") a.rate_mbps = parse_number<double>(val);
      else if (key == "duration-ms") a.duration_ms = parse_number<double>(val);
      else if (key == "seed") a.seed = parse_number<std::uint64_t>(val);
      else if (key == "csv") a.csv = val;
      else if (key == "fault-plan") {
        if (val.empty()) {
          // An empty value must not silently run fault-free.
          std::fprintf(stderr, "--fault-plan needs a spec or @file\n");
          return std::nullopt;
        }
        a.fault_plan = val;
      }
      else if (key == "adversaries") a.adversaries = parse_number<int>(val);
      else if (key == "adversary-mode") a.adversary_mode = val;
      else if (key == "compliance") a.compliance = parse_number<double>(val);
      else if (key == "policing") a.policing = val;
      else if (key == "crm") a.crm = parse_number<int>(val);
      else if (key == "cdf") a.cdf = parse_number<double>(val);
      else if (key == "adtf") a.adtf_ms = parse_number<double>(val);
      else if (key == "buffer-cells") {
        a.buffer_cells = parse_number<long>(val);
        if (a.buffer_cells < 1) {
          std::fprintf(stderr, "--buffer-cells must be >= 1\n");
          return std::nullopt;
        }
      }
      else if (key == "mcr-mbps") a.mcr_mbps = parse_number<double>(val);
      else if (key == "metrics-out") a.metrics_out = val;
      else if (key == "metrics-interval") {
        a.metrics_interval_ms = parse_number<double>(val);
      }
      else if (key == "trace-out") a.trace_out = val;
      else if (key == "trace-jsonl") a.trace_jsonl = val;
      else if (key == "trace-capacity") a.trace_capacity = parse_number<long>(val);
      else if (key == "trace-vc") a.trace_vc = parse_number<int>(val);
      // Event node and port ids are 16-bit: a larger value would wrap.
      else if (key == "trace-node") a.trace_node = parse_number<std::int16_t>(val);
      else if (key == "trace-port") a.trace_port = parse_number<std::int16_t>(val);
      else if (key == "trace-category") a.trace_category = val;
      else {
        std::fprintf(stderr, "unknown option: --%s\n", key.c_str());
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for --%s: %s\n", key.c_str(),
                   val.c_str());
      return std::nullopt;
    }
  }
  if (a.sessions < 1 || a.rate_mbps <= 0 || a.duration_ms < 50) {
    std::fprintf(stderr, "need sessions >= 1, rate > 0, duration >= 50 ms\n");
    return std::nullopt;
  }
  if (a.adversaries < 0 || a.adversaries > a.sessions) {
    std::fprintf(stderr, "need 0 <= adversaries <= sessions\n");
    return std::nullopt;
  }
  if (a.adversary_mode != "greedy" && a.adversary_mode != "forge" &&
      a.adversary_mode != "partial") {
    std::fprintf(stderr, "unknown adversary mode: %s\n",
                 a.adversary_mode.c_str());
    return std::nullopt;
  }
  if (a.compliance < 0.0 || a.compliance > 1.0) {
    std::fprintf(stderr, "compliance must be in [0, 1]\n");
    return std::nullopt;
  }
  if (a.policing != "off" && a.policing != "monitor" && a.policing != "tag" &&
      a.policing != "drop") {
    std::fprintf(stderr, "unknown policing action: %s\n", a.policing.c_str());
    return std::nullopt;
  }
  if (a.crm < 1 || a.cdf <= 0.0 || a.cdf > 1.0 || a.adtf_ms <= 0.0) {
    std::fprintf(stderr, "need crm >= 1, cdf in (0, 1], adtf > 0 ms\n");
    return std::nullopt;
  }
  if (a.mcr_mbps < 0.0) {
    std::fprintf(stderr, "mcr-mbps must be >= 0\n");
    return std::nullopt;
  }
  if (!a.overload && (a.buffer_cells > 0 || !a.epd)) {
    std::fprintf(stderr, "--buffer-cells and --no-epd need --overload\n");
    return std::nullopt;
  }
  if (a.metrics_interval_ms < 0.0) {
    std::fprintf(stderr, "--metrics-interval must be >= 0 ms\n");
    return std::nullopt;
  }
  if (a.metrics_interval_ms > 0.0 && a.metrics_out.empty()) {
    std::fprintf(stderr, "--metrics-interval needs --metrics-out\n");
    return std::nullopt;
  }
  if (a.trace_capacity < 1) {
    std::fprintf(stderr, "--trace-capacity must be >= 1\n");
    return std::nullopt;
  }
  if ((a.trace_vc >= 0 || a.trace_node >= 0 || a.trace_port >= 0 ||
       !a.trace_category.empty()) &&
      a.trace_jsonl.empty()) {
    std::fprintf(stderr, "--trace-vc/node/port/category filter the\n"
                         "--trace-jsonl export; pass --trace-jsonl=FILE\n");
    return std::nullopt;
  }
  if (!a.trace_category.empty() &&
      !obs::category_from_string(a.trace_category)) {
    std::fprintf(stderr,
                 "unknown trace category: %s (want "
                 "cell|rm|policer|admission|fault|controller)\n",
                 a.trace_category.c_str());
    return std::nullopt;
  }
  if (a.validate_only && a.fault_plan.empty()) {
    std::fprintf(stderr, "--validate-only needs --fault-plan\n");
    return std::nullopt;
  }
  if (!a.fault_plan.empty() && a.fault_plan.front() == '@') {
    const auto spec = read_fault_plan_file(a.fault_plan.substr(1));
    if (!spec) return std::nullopt;
    a.fault_plan = *spec;
  }
  return a;
}

/// Fault machinery armed when --fault-plan is given: the injector, the
/// invariant monitor, and a fair-share sampler on the bottleneck (the
/// trace time-to-reconvergence is computed from).
struct FaultHarness {
  FaultHarness(sim::Simulator& sim, topo::AbrNetwork& net,
               const atm::OutputPort& bottleneck, const fault::FaultPlan& p,
               obs::EventLog* events = nullptr)
      // The plan is applied before the monitor and sampler arm, mirroring
      // chaos::run_trial exactly so chaos-reported schedules replay 1:1.
      // The event log (may be null) attaches before apply() so the
      // kFaultArmed records land in the trace.
      : injector{sim, net},
        monitor{(injector.set_event_log(events), injector.apply(p), sim),
                net},
        share{sim, bottleneck.controller()},
        plan{p} {
    monitor.set_event_log(events);
  }

  fault::FaultInjector injector;
  fault::InvariantMonitor monitor;
  exp::FairShareSampler share;
  fault::FaultPlan plan;
};

/// Writes `content` to `path` (binary, whole file). Failing to write a
/// requested artifact is a hard error, not a warning — an operator
/// piping --trace-out into a dashboard must not get a silent no-op.
bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  if (!out.good()) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Writes registry snapshots to the --metrics-out file: a final
/// snapshot always (finish()), plus one every --metrics-interval
/// simulated milliseconds when set. A ".csv" path selects long-format
/// CSV (one header, every snapshot appends rows); any other path gets
/// one JSON snapshot object per line.
class MetricsDumper {
 public:
  MetricsDumper(sim::Simulator& sim, const obs::Registry& reg,
                const std::string& path, double interval_ms)
      : sim_{&sim},
        reg_{&reg},
        csv_{path.size() >= 4 &&
             path.compare(path.size() - 4, 4, ".csv") == 0},
        out_{path, std::ios::binary} {
    if (!out_) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    if (csv_) out_ << obs::Registry::csv_header();
    if (interval_ms > 0.0) {
      period_ = Time::from_seconds(interval_ms / 1e3);
      sim_->schedule(period_, [this] { tick(); });
    }
  }

  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

  [[nodiscard]] bool ok() const { return out_.good(); }
  void finish() { snapshot(); }

 private:
  void tick() {
    snapshot();
    sim_->schedule(period_, [this] { tick(); });
  }
  void snapshot() {
    if (!out_) return;
    if (csv_) {
      out_ << reg_->snapshot_csv(sim_->now());
    } else {
      out_ << reg_->snapshot_json(sim_->now()) << '\n';
    }
  }

  sim::Simulator* sim_;
  const obs::Registry* reg_;
  bool csv_;
  std::ofstream out_;
  Time period_ = Time::zero();
};

void report_faults(const FaultHarness& h) {
  exp::print_fault_log(h.injector.log());
  exp::print_violations(h.monitor);
  // Reconvergence: back to the pre-fault operating point (mean fair
  // share over the half-window before the first fault) within 10%.
  const sim::Time first = h.plan.first_fault_time();
  const double target =
      stats::mean_in_window(h.share.trace().samples(), first * 0.5, first);
  const auto latency =
      stats::time_to_reconverge(h.share.trace().samples(), first, target);
  if (latency) {
    std::printf(
        "reconverged to pre-fault share (%.2f Mb/s +/- 10%%) %.3f ms after "
        "first fault\n",
        target * 1e-6, latency->milliseconds());
  } else {
    std::printf("did NOT reconverge to pre-fault share (%.2f Mb/s +/- 10%%)\n",
                target * 1e-6);
  }
}

void report_abr(sim::Simulator& sim, topo::AbrNetwork& net,
                atm::OutputPort& bottleneck, const Args& args,
                const sim::Trace& queue_trace,
                const FaultHarness* faults = nullptr) {
  exp::GoodputProbe probe{sim, net};
  const Time horizon = Time::from_seconds(args.duration_ms / 1e3);
  sim.run_until(horizon * 0.6);
  probe.mark();
  sim.run_until(horizon);

  const auto rates = probe.rates_mbps();
  exp::Table table{{"session", "goodput (Mb/s)"}};
  for (std::size_t s = 0; s < rates.size(); ++s) {
    table.add_row({std::to_string(s), exp::Table::num(rates[s])});
  }
  table.print();
  std::printf(
      "\nJain %.4f | total %.2f Mb/s | fair-share estimate %.2f Mb/s\n"
      "queue: now %zu, max %zu cells, drops %llu\n",
      stats::jain_index(rates), probe.total_mbps(),
      bottleneck.controller().fair_share().mbits_per_sec(),
      bottleneck.queue_length(), bottleneck.max_queue_length(),
      static_cast<unsigned long long>(bottleneck.cells_dropped()));
  if (faults != nullptr) {
    std::printf("cells lost on links: %llu\n",
                static_cast<unsigned long long>(net.total_cells_lost()));
    report_faults(*faults);
  }
  if (!args.csv.empty()) {
    exp::write_series_csv(args.csv + "_queue.csv", queue_trace.samples());
    std::printf("wrote %s_queue.csv\n", args.csv.c_str());
    if (faults != nullptr) {
      exp::write_series_csv(args.csv + "_share.csv",
                            faults->share.trace().samples(), 1e-6);
      std::printf("wrote %s_share.csv\n", args.csv.c_str());
    }
  }
}

int run_abr_scenario(const Args& args, exp::Algorithm alg) {
  // "onoff" is the bottleneck topology plus an OnOffDriver on the last
  // session; everything else maps straight onto a chaos scenario.
  chaos::ScenarioSpec spec;
  if (args.scenario == "onoff") {
    spec.kind = chaos::ScenarioSpec::Kind::kBottleneck;
  } else if (const auto kind = chaos::kind_from_string(args.scenario)) {
    spec.kind = *kind;
  } else {
    std::fprintf(stderr, "unknown scenario: %s\n", args.scenario.c_str());
    return 2;
  }
  spec.algorithm = alg;
  spec.sessions = args.sessions;
  spec.rate_mbps = args.rate_mbps;
  spec.horizon = Time::from_seconds(args.duration_ms / 1e3);
  spec.abr_params.crm = args.crm;
  spec.abr_params.cdf = args.cdf;
  spec.abr_params.adtf = Time::from_seconds(args.adtf_ms / 1e3);
  spec.abr_params.feedback_decay = args.feedback_decay;
  if (args.mcr_mbps > 0.0) spec.abr_params.mcr = Rate::mbps(args.mcr_mbps);
  spec.overload = args.overload;
  if (args.buffer_cells > 0) {
    spec.overload_options.buffer.budget_cells =
        static_cast<std::size_t>(args.buffer_cells);
  }
  spec.overload_options.buffer.epd = args.epd;

  if (args.validate_only) {
    // Dry run: parse the plan and resolve every target against the real
    // topology (eager validation), but never start the clock. Exit 0
    // iff the plan would load; errors keep their 1-based positions.
    try {
      const fault::FaultPlan p = fault::FaultPlan::parse(args.fault_plan);
      sim::Simulator sim{args.seed};
      topo::AbrNetwork net{sim, spec.factory()};
      chaos::build_topology(spec, net);
      fault::FaultInjector injector{sim, net};
      injector.apply(p, fault::FaultInjector::ValidateMode::kEager);
      std::printf("fault plan OK: %zu event%s\n", p.events.size(),
                  p.events.size() == 1 ? "" : "s");
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  std::optional<fault::FaultPlan> plan;
  if (!args.fault_plan.empty()) {
    try {
      plan = fault::FaultPlan::parse(args.fault_plan);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  sim::Simulator sim{args.seed};
  topo::AbrNetwork net{sim, spec.factory()};
  atm::OutputPort* built = nullptr;
  try {
    built = &chaos::build_topology(spec, net);
  } catch (const std::invalid_argument& e) {
    // e.g. a --rate-mbps whose cell time sim::Time cannot hold
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  atm::OutputPort& bottleneck = *built;

  std::optional<obs::EventLog> events;
  if (args.wants_trace()) {
    events.emplace(static_cast<std::size_t>(args.trace_capacity));
    net.attach_event_log(&*events);
  }

  if (args.adversaries > 0) {
    // The last N sessions turn hostile; compliant ones keep low indices
    // so their goodput rows are easy to eyeball in the table.
    const auto mode = args.adversary_mode == "greedy"
                          ? atm::SourceBehavior::kGreedy
                          : args.adversary_mode == "forge"
                                ? atm::SourceBehavior::kForging
                                : atm::SourceBehavior::kPartial;
    for (int i = 0; i < args.adversaries; ++i) {
      net.set_session_behavior(
          static_cast<std::size_t>(args.sessions - 1 - i), mode,
          args.compliance);
    }
  }
  if (args.policing != "off") {
    atm::PolicerConfig pc;
    pc.action = args.policing == "monitor" ? atm::PolicingAction::kMonitor
                : args.policing == "tag"   ? atm::PolicingAction::kTag
                                           : atm::PolicingAction::kDrop;
    net.enable_policing(pc);
  }

  std::optional<FaultHarness> faults;
  if (plan) {
    try {
      faults.emplace(sim, net, bottleneck, *plan, events ? &*events : nullptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  // The registry samples by callback, so it registers after everything
  // that owns metrics exists (policers, buffer managers, the injector).
  obs::Registry registry;
  std::optional<MetricsDumper> metrics;
  if (!args.metrics_out.empty()) {
    net.register_metrics(registry);
    if (faults) faults->injector.register_metrics(registry, "fault");
    metrics.emplace(sim, registry, args.metrics_out,
                    args.metrics_interval_ms);
    if (!metrics->ok()) return 2;
  }
  exp::QueueSampler queue{sim, bottleneck};
  std::optional<topo::OnOffDriver> driver;
  if (args.scenario == "onoff") {
    topo::OnOffDriver::Options opt;  // last session toggles
    opt.first_toggle = Time::ms(60);
    driver.emplace(sim, net.source(static_cast<std::size_t>(args.sessions) - 1),
                   opt);
  }
  std::optional<PerfReporter> perf;
  if (args.perf_report) perf.emplace(sim);
  net.start_all(Time::zero(), Time::zero());

  const std::string detail =
      spec.kind == chaos::ScenarioSpec::Kind::kParking
          ? exp::to_string(alg) + ", " +
                std::to_string(std::max(2, args.sessions - 1)) + " hops"
          : exp::to_string(alg) + ", " + std::to_string(args.sessions) +
                " sessions @ " + exp::Table::num(args.rate_mbps, 0) + " Mb/s";
  exp::print_header("cli:" + args.scenario, detail);
  report_abr(sim, net, bottleneck, args, queue.trace(),
             faults ? &*faults : nullptr);
  if (!args.feedback_decay) {
    std::printf("feedback-loss decay: DISABLED (ablation)\n");
  }
  if (args.adversaries > 0) {
    std::printf("adversaries: %d (%s", args.adversaries,
                args.adversary_mode.c_str());
    if (args.adversary_mode == "partial") {
      std::printf(", compliance %.2f", args.compliance);
    }
    std::printf("), rm cells sanitized %llu\n",
                static_cast<unsigned long long>(net.rm_cells_sanitized()));
  }
  if (args.policing != "off") {
    std::uint64_t checked = 0, nonconforming = 0, tagged = 0, dropped = 0;
    for (std::size_t s = 0; s < net.num_switches(); ++s) {
      const atm::Policer* p = net.node(s).policer();
      if (p == nullptr) continue;
      checked += p->cells_checked();
      nonconforming += p->cells_nonconforming();
      tagged += p->cells_tagged();
      dropped += p->cells_dropped();
    }
    std::printf(
        "policing (%s): checked %llu, violations %llu (%.2f%%), tagged %llu, "
        "dropped %llu\n",
        args.policing.c_str(), static_cast<unsigned long long>(checked),
        static_cast<unsigned long long>(nonconforming),
        checked > 0 ? 100.0 * static_cast<double>(nonconforming) /
                          static_cast<double>(checked)
                    : 0.0,
        static_cast<unsigned long long>(tagged),
        static_cast<unsigned long long>(dropped));
  }
  if (args.overload) {
    const atm::CacCounters cac = net.cac_totals();
    std::printf(
        "admission: admitted %llu, refused %llu (vc-limit %llu, "
        "mcr-budget %llu, buffer %llu, pressure %llu)\n",
        static_cast<unsigned long long>(cac.admitted),
        static_cast<unsigned long long>(cac.refused_total()),
        static_cast<unsigned long long>(cac.refused_vc_limit),
        static_cast<unsigned long long>(cac.refused_mcr_budget),
        static_cast<unsigned long long>(cac.refused_buffer),
        static_cast<unsigned long long>(cac.refused_pressure));
    std::size_t peak = 0;
    auto worst = atm::DegradationLevel::kNormal;
    for (std::size_t s = 0; s < net.num_switches(); ++s) {
      const atm::BufferManager* bm = net.node(s).buffer_manager();
      if (bm == nullptr) continue;
      peak += bm->peak_cells_in_use();
      worst = std::max(worst, bm->worst_level());
    }
    std::printf(
        "buffers: in use %zu cells (peak %zu), epd frames %llu, "
        "ppd cells %llu, shed %llu, overflow %llu, worst level %s\n",
        net.buffer_cells_in_use(), peak,
        static_cast<unsigned long long>(net.epd_frames_discarded()),
        static_cast<unsigned long long>(net.cells_ppd_discarded()),
        static_cast<unsigned long long>(net.cells_shed()),
        static_cast<unsigned long long>(net.buffer_overflow_drops()),
        atm::to_string(worst).c_str());
  }
  if (perf) perf->print();
  if (metrics) {
    metrics->finish();
    std::printf("wrote %s (metrics)\n", args.metrics_out.c_str());
  }
  if (events) {
    if (!args.trace_out.empty()) {
      if (!write_file(args.trace_out, events->to_chrome_trace())) return 2;
      std::printf("wrote %s (chrome trace)\n", args.trace_out.c_str());
    }
    if (!args.trace_jsonl.empty()) {
      obs::EventLog::Filter f;
      if (args.trace_vc >= 0) f.vc = args.trace_vc;
      if (args.trace_node >= 0) {
        f.node = static_cast<std::int16_t>(args.trace_node);
      }
      if (args.trace_port >= 0) {
        f.port = static_cast<std::int16_t>(args.trace_port);
      }
      if (!args.trace_category.empty()) {
        f.category = obs::category_from_string(args.trace_category);
      }
      if (!write_file(args.trace_jsonl, events->to_jsonl(f))) return 2;
      std::printf("wrote %s (event jsonl)\n", args.trace_jsonl.c_str());
    }
    std::printf("trace: %llu events recorded, %llu overwritten (ring %zu)\n",
                static_cast<unsigned long long>(events->recorded()),
                static_cast<unsigned long long>(events->overwritten()),
                events->capacity());
  }
  return 0;
}

int run_tcp_scenario(const Args& args) {
  sim::Simulator sim{args.seed};
  std::optional<PerfReporter> perf;
  if (args.perf_report) perf.emplace(sim);
  tcp::TcpNetwork net{sim};
  const auto r = net.add_router("r0");
  tcp::TcpTrunkOptions opts;
  opts.rate = Rate::mbps(args.rate_mbps);
  opts.queue_limit = 60;
  if (args.algorithm == "phantom") {
    // Factor 10: the upper end of the bench's uf sweep, the most robust
    // setting for small flow counts (see EXPERIMENTS.md, Ablation D).
    opts.policy = [](sim::Simulator& s, Rate rate) {
      return std::make_unique<tcp::SelectiveDiscardPolicy>(s, rate, 10.0);
    };
  }
  tcp::TcpNetwork::SinkNodeId sink = 0;
  const Time horizon = Time::from_seconds(args.duration_ms / 1e3);
  std::vector<std::int64_t> base;
  try {
    sink = net.add_sink_node(r, opts);
    for (int i = 0; i < args.sessions; ++i) {
      // Geometric RTT spread (6, 12, 24, ... ms), the paper-style
      // heterogeneous mix.
      net.add_flow(r, {}, sink, tcp::RenoConfig{}, Rate::mbps(100),
                   Time::ms(3 * (std::int64_t{1} << std::min(i, 4))));
    }
    net.start_all(Time::zero(), Time::ms(73));

    sim.run_until(horizon * 0.3);
    for (std::size_t f = 0; f < net.num_flows(); ++f) {
      base.push_back(net.delivered_bytes(f));
    }
    sim.run_until(horizon);
  } catch (const std::invalid_argument& e) {
    // e.g. a --rate-mbps whose packet times sim::Time cannot hold; the
    // ports refuse a rate when built and each packet when sent
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  exp::print_header(
      "cli:tcp", std::string{"Reno over "} +
                     (opts.policy ? "selective discard" : "drop-tail") +
                     ", " + std::to_string(args.sessions) + " flows");
  exp::Table table{{"flow", "goodput (Mb/s)"}};
  std::vector<double> rates;
  for (std::size_t f = 0; f < net.num_flows(); ++f) {
    rates.push_back(static_cast<double>(net.delivered_bytes(f) - base[f]) * 8 /
                    (horizon * 0.7).seconds() / 1e6);
    table.add_row({std::to_string(f), exp::Table::num(rates.back())});
  }
  table.print();
  std::printf("\nJain %.4f | max queue %zu packets | drops %llu\n",
              stats::jain_index(rates), net.sink_port(sink).max_queue_length(),
              static_cast<unsigned long long>(
                  net.sink_port(sink).packets_dropped()));
  if (perf) perf->print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) return 2;
  if (args->metrics_doc) {
    // Reference mode: print the canonical metric table (the generated
    // docs/METRICS.md) and exit without running a scenario.
    std::fputs(exp::metrics_reference_markdown().c_str(), stdout);
    return 0;
  }
  if (args->scenario == "tcp") {
    if (args->algorithm != "phantom" && args->algorithm != "droptail") {
      std::fprintf(stderr,
                   "unknown tcp algorithm: %s (want phantom|droptail)\n",
                   args->algorithm.c_str());
      return 2;
    }
    if (!args->fault_plan.empty()) {
      std::fprintf(stderr, "--fault-plan requires an ABR scenario\n");
      return 2;
    }
    if (args->wants_obs()) {
      std::fprintf(stderr,
                   "--metrics-out/--trace-* require an ABR scenario\n");
      return 2;
    }
    return run_tcp_scenario(*args);
  }
  const auto alg = exp::algorithm_from_string(args->algorithm);
  if (!alg) {
    std::fprintf(stderr, "unknown algorithm: %s\n", args->algorithm.c_str());
    return 2;
  }
  return run_abr_scenario(*args, *alg);
}
