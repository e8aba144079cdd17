#include "exp/flags.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "sim/parse_number.h"

namespace phantom::exp {
namespace {

/// Parses `text`, when given, into the row's field (throwing on a value
/// the field cannot hold); returns the field as flag text, "" if unset.
std::string field_text(const Flag& f, const std::string* text) {
  return std::visit(
      [&](auto* p) -> std::string {
        using T = std::remove_pointer_t<decltype(p)>;
        const std::string v = text ? *text : "";
        if constexpr (std::is_same_v<T, bool>) {
          if (text) {
            *p = f.form == FlagForm::kBare
                     ? !std::string_view{f.name}.starts_with("no-")
                     : sim::parse_number<int>(v) != 0;
          }
          return *p ? "1" : "0";
        } else if constexpr (std::is_arithmetic_v<T>) {
          if (text) *p = sim::parse_number<T>(v);
          return sim::format_number(*p);
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (text) *p = v;
          return *p;
        } else if constexpr (std::is_same_v<T, sim::Time>) {
          if (text) {
            const double ms = sim::parse_number<double>(v);
            const sim::Time t = sim::time_from_ms(ms);
            // A nonzero value that rounds to 0 ns would silently read as
            // 0, and a metrics period of 0 never advances the clock.
            if (ms != 0 && t.is_zero()) throw std::invalid_argument{v};
            *p = t;
          }
          return sim::format_ms(*p);
        } else if constexpr (std::is_same_v<T, sim::Rate>) {
          if (text) *p = sim::Rate::mbps(sim::parse_number<double>(v));
          return sim::format_number(p->mbits_per_sec());
        } else if constexpr (std::is_same_v<T, Scenario::Kind>) {
          if (text) *p = kind_from_string(v).value();
          return to_string(*p);
        } else if constexpr (std::is_same_v<T, Algorithm>) {
          if (text) *p = algorithm_from_string(v).value();
          return to_string(*p);
        } else {  // an id; -1 leaves it unset
          if (text) {
            const auto id = sim::parse_number<typename T::value_type>(v);
            if (id < -1) throw std::invalid_argument{"not an id: " + v};
            *p = id == -1 ? T{} : T{id};
          }
          return *p ? std::to_string(**p) : "-1";
        }
      },
      f.field);
}

/// `--name`, or `--name=` and the field's value or the form's placeholder.
std::string spelling(const Flag& f) {
  static constexpr const char* kPlaceholder[] = {"",   "N",    "X",
                                                 "MS", "TEXT", "PATH"};
  if (f.form == FlagForm::kBare) return std::string{"--"} + f.name;
  const std::string value = field_text(f, nullptr);
  return std::string{"--"} + f.name + '=' +
         (value.empty() ? kPlaceholder[static_cast<int>(f.form)] : value);
}

}  // namespace

bool FlagTable::given(std::string_view name) const {
  for (const auto& [title, rows] : groups) {
    for (const Flag& f : rows) {
      if (name == f.name) return f.given;
    }
  }
  return false;
}

std::optional<int> parse_flags(FlagTable& table, int argc,
                               const char* const* argv) {
  if (std::find(argv + 1, argv + argc, std::string_view{"--help"}) !=
      argv + argc) {
    std::fputs(help_text(table).c_str(), stdout);
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool dashed = arg.rfind("--", 0) == 0;
    const auto eq = arg.find('=');
    const bool valued = eq != std::string::npos;
    const std::string key =
        dashed ? arg.substr(2, valued ? eq - 2 : std::string::npos) : "";
    Flag* row = nullptr;
    for (auto& [title, rows] : table.groups) {
      for (Flag& f : rows) {
        if (key == f.name && (f.form == FlagForm::kBare) != valued) row = &f;
      }
    }
    if (row == nullptr && dashed && valued) {
      std::fprintf(stderr, "unknown option: --%s\n", key.c_str());
    } else if (row == nullptr) {
      std::fprintf(stderr, "bad argument: %s (want --key=value)\n",
                   arg.c_str());
    }
    if (row == nullptr) return 2;
    const std::string value = valued ? arg.substr(eq + 1) : "";
    try {
      field_text(*row, &value);
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for --%s: %s\n", key.c_str(),
                   value.c_str());
      return 2;
    }
    row->given = true;
  }
  return std::nullopt;
}

std::string help_text(const FlagTable& table) {
  std::string out = table.usage;
  for (const auto& [title, rows] : table.groups) {
    out += std::string{"\n"} + title + ":\n";
    for (const Flag& f : rows) {
      std::string flag = "  " + spelling(f) + "  ";
      flag.resize(std::max<std::size_t>(flag.size(), 28), ' ');
      out += flag + f.help + (f.abr ? " [ABR]\n" : "\n");
    }
  }
  return out;
}

FlagTable cli_flags(CliArgs& a) {
  using enum FlagForm;
  Scenario& s = a.spec;
  atm::AbrParams& src = s.abr_params;
  obs::EventLog::Filter& only = a.trace_filter;
  const auto abr = [](std::vector<Flag> rows) {
    for (Flag& f : rows) f.abr = true;
    return rows;
  };
  std::vector<Flag> scenario = {
      {"scenario", kWord,
       "bottleneck/parking/paper_lot/onoff/tcp; onoff toggles the last "
       "session",
       &a.scenario},
      {"algorithm", kWord,
       "phantom/eprca/aprc/capc/erica; tcp: phantom/droptail", &a.algorithm},
      {"sessions", kInt, "sessions (tcp: flows); at least 1", &s.sessions},
      {"rate-mbps", kNum, "bottleneck rate in Mb/s; above 0", &s.rate_mbps},
      {"duration-ms", kMs, "simulated horizon; at least 50 ms", &s.horizon},
      {"seed", kInt, "simulator seed; same seed, same output", &a.seed}};
  std::vector<Flag> faults = abr({
      {"fault-plan", kWord, "faults (src/fault/fault_plan.h), or @PATH",
       &a.fault_plan},
      {"validate-only", kBare,
       "check the plan, exit 0 or 1; needs --fault-plan", &a.validate_only}});
  std::vector<Flag> adversaries = abr({
      {"adversaries", kInt, "the last N sessions misbehave; 0 to --sessions",
       &a.adversaries},
      {"adversary-mode", kWord, "how they misbehave: greedy/forge/partial",
       &a.adversary_mode},
      {"compliance", kNum, "ER share a partial one obeys; in [0, 1]",
       &a.compliance},
      {"policing", kWord, "per-VC GCRA at each ingress: off/monitor/tag/drop",
       &a.policing}});
  std::vector<Flag> selfheal = abr({
      {"crm", kInt, "unanswered FRMs before ACR decays; at least 1", &src.crm},
      {"cdf", kNum, "ACR cut per further FRM; in (0, 1]", &src.cdf},
      {"adtf", kMs, "idle time until ACR drops to ICR; above 0", &src.adtf},
      {"no-feedback-decay", kBare, "no backoff (the ablation)",
       &src.feedback_decay}});
  std::vector<Flag> overload = abr({
      {"overload", kBare, "bounded buffers and admission control",
       &s.overload},
      {"buffer-cells", kInt, "cells per switch; at least 1; needs --overload",
       &s.overload_options.buffer.budget_cells},
      {"no-epd", kBare, "no early packet discard; needs --overload",
       &s.overload_options.buffer.epd},
      {"mcr-mbps", kNum, "every session's MCR in Mb/s; at least 0",
       &src.mcr}});
  std::vector<Flag> observe = abr({
      {"csv", kPath, "write PATH_queue.csv, with faults PATH_share.csv",
       &a.csv},
      {"metrics-out", kPath, "final metrics, JSON lines or (.csv) CSV",
       &a.metrics_out},
      {"metrics-interval", kMs,
       "snapshot every MS too; at least 0; needs --metrics-out",
       &a.metrics_interval},
      {"trace-out", kPath, "event log as Chrome trace JSON", &a.trace_out},
      {"trace-jsonl", kPath, "event log as JSON lines", &a.trace_jsonl},
      {"trace-capacity", kInt, "event ring size (a power of 2); at least 1",
       &a.trace_capacity},
      {"trace-vc", kInt, "keep one VC, -1 all; needs --trace-jsonl", &only.vc},
      {"trace-node", kInt, "keep one switch (at most 32767) likewise",
       &only.node},
      {"trace-port", kInt, "keep one port (at most 32767) likewise",
       &only.port},
      {"trace-category", kWord,
       "keep one category likewise: cell/rm/policer/admission/fault/controller",
       &a.trace_category}});
  return {
      "usage: phantom_cli [--FLAG | --FLAG=VALUE]...\n"
      "Exit 0 on success, 1 when --validate-only refuses the plan, 2 on a\n"
      "bad argument. [ABR] flags apply to bottleneck, parking and onoff.\n",
      {{"Scenario selection", scenario},
       {"Fault injection", faults},
       {"Misbehaving sources and policing", adversaries},
       {"Self-healing (TM 4.0 feedback-loss backoff)", selfheal},
       {"Overload protection", overload},
       {"Observability", observe},
       {"Reports",
        {{"metrics-doc", kBare, "print docs/METRICS.md and exit",
          &a.metrics_doc},
         {"perf-report", kBare, "append kernel statistics", &a.perf_report}}}}};
}

}  // namespace phantom::exp
