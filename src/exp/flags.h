// Command-line flags as data: one table per program, one row per flag
// naming the flag, the form of its value, one help line, the field it
// sets and whether it applies to the ABR scenarios only. parse_flags()
// reads argv through the table; help_text() renders the rows, each
// default read from its field, for --help and for docs/OPERATIONS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "exp/scenario.h"
#include "obs/event_log.h"

namespace phantom::exp {

/// What follows `--name`: nothing, or `=` and a value of this form.
enum class FlagForm { kBare, kInt, kNum, kMs, kWord, kPath };

/// The field a row sets. A bare bool is set, or cleared by a `no-` flag;
/// an integer bool is set by a nonzero value; a Rate reads Mb/s; an
/// optional id reads -1 as unset; a Time reads milliseconds through
/// sim::time_from_ms and, unless 0, must come to at least 1 ns. A string
/// takes any word: the program checks the words it means.
using FlagField =
    std::variant<bool*, int*, std::int64_t*, std::uint64_t*, double*,
                 std::string*, sim::Time*, sim::Rate*,
                 std::optional<std::int32_t>*, std::optional<std::int16_t>*,
                 Scenario::Kind*, Algorithm*>;

struct Flag {
  const char* name;  ///< without the leading "--"
  FlagForm form;
  const char* help;  ///< one line, with the rule the value must meet
  FlagField field;
  bool abr = false;    ///< only the ABR scenarios take it
  bool given = false;  ///< set by parse_flags
};

struct FlagTable {
  const char* usage;  ///< --help's lines above the groups
  std::vector<std::pair<const char*, std::vector<Flag>>> groups;

  [[nodiscard]] bool given(std::string_view name) const;
};

/// Parses argv[1..] into the table's fields. Returns nullopt to run,
/// else the exit status once printed: 0 for --help, 2 for "bad
/// argument: ARG (want --key=value)", "unknown option: --KEY" or "bad
/// value for --KEY: VALUE".
[[nodiscard]] std::optional<int> parse_flags(FlagTable& table, int argc,
                                             const char* const* argv);
[[nodiscard]] std::string help_text(const FlagTable& table);

/// phantom_cli's arguments: the scenario it runs (an exp::Scenario, or
/// the section 4.3 TCP run) and what it arms, reports and exports.
struct CliArgs {
  Scenario spec;  ///< scenario and algorithm resolve into it, unless tcp
  std::string scenario = "bottleneck";
  std::string algorithm = "phantom";  ///< an Algorithm, or droptail
  std::uint64_t seed = 1;
  std::string fault_plan;  ///< FaultPlan::parse spec, or @PATH to one
  bool validate_only = false;
  int adversaries = 0;
  std::string adversary_mode = "greedy";
  double compliance = 0.5;
  std::string policing = "off";
  std::string csv;
  std::string metrics_out;
  sim::Time metrics_interval = sim::Time::zero();
  std::string trace_out;
  std::string trace_jsonl;
  std::int64_t trace_capacity = 1 << 16;
  std::string trace_category;  ///< a category name, "" for all
  /// Applies to --trace-jsonl; its category is read from trace_category.
  obs::EventLog::Filter trace_filter;
  bool metrics_doc = false;
  bool perf_report = false;
};

/// phantom_cli's flags, bound to `args`.
[[nodiscard]] FlagTable cli_flags(CliArgs& args);

}  // namespace phantom::exp
