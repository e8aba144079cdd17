// The CLI flag tables: parsing into the bound fields, --help's defaults,
// and the docs/OPERATIONS.md drift gate. If the gate fails, a flag's
// name, help or default changed without regenerating the page:
//   ./build/tests/regen_operations_doc
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "operations_doc.h"

namespace phantom {
namespace {

using sim::Time;

std::optional<int> parse(exp::FlagTable& table,
                         std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return exp::parse_flags(table, static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, ParsesEachFormIntoItsField) {
  exp::CliArgs a;
  exp::FlagTable t = exp::cli_flags(a);
  EXPECT_EQ(parse(t, {"--scenario=parking", "--sessions=5", "--seed=9",
                      "--rate-mbps=40.5", "--duration-ms=600.000123",
                      "--mcr-mbps=4", "--overload", "--no-epd",
                      "--buffer-cells=2048", "--trace-node=-1"}),
            std::nullopt);
  EXPECT_EQ(a.scenario, "parking");
  EXPECT_EQ(a.spec.sessions, 5);
  EXPECT_EQ(a.seed, 9u);
  EXPECT_EQ(a.spec.rate_mbps, 40.5);
  EXPECT_EQ(a.spec.horizon, Time::ns(600'000'123));
  EXPECT_EQ(a.spec.abr_params.mcr, sim::Rate::mbps(4));
  EXPECT_TRUE(a.spec.overload);
  EXPECT_FALSE(a.spec.overload_options.buffer.epd);
  EXPECT_EQ(a.spec.overload_options.buffer.budget_cells, 2048u);
  EXPECT_TRUE(t.given("no-epd"));
  EXPECT_FALSE(t.given("crm"));
}

TEST(FlagsTest, RefusesBadForms) {
  for (const char* arg : {
           "--sessions",                // a value flag without a value
           "--overload=1",              // a bare flag with one
           "--sessions=3x",             // not one whole number
           "--buffer-cells=-1",         // a count takes no sign
           "--duration-ms=1e300",       // beyond sim::Time
           "--metrics-interval=1e-12",  // rounds to 0 ns
           "--trace-port=-2"}) {        // neither -1 nor an id
    exp::CliArgs a;
    exp::FlagTable t = exp::cli_flags(a);
    EXPECT_EQ(parse(t, {arg}), 2) << arg;
  }
}

TEST(FlagsTest, HelpShowsTheBoundFieldsAsDefaults) {
  doc::CliTables cli;
  const std::string help = exp::help_text(cli.tables[0].second);
  for (const char* row : {"--sessions=3 ", "--duration-ms=600 ",
                          "--adtf=250 ", "--buffer-cells=8192 ",
                          "--trace-capacity=65536 ", "--fault-plan=TEXT "}) {
    EXPECT_NE(help.find(row), std::string::npos) << row;
  }
  const std::string chaos_help = exp::help_text(cli.tables[1].second);
  for (const char* row : {"--algorithm=Phantom ", "--trials=100 ",
                          "--timeout-ms=30000 ", "--shrink=1 "}) {
    EXPECT_NE(chaos_help.find(row), std::string::npos) << row;
  }
  // The default is the field's value, not a copy of it.
  exp::CliArgs changed;
  changed.spec.sessions = 7;
  EXPECT_NE(exp::help_text(exp::cli_flags(changed)).find("--sessions=7 "),
            std::string::npos);
}

TEST(FlagsDocTest, CheckedInTablesMatchTheFlagTables) {
  const std::string page = doc::read_page();
  std::vector<std::string> blocks;
  EXPECT_EQ(page, doc::regenerate(page, &blocks))
      << "docs/OPERATIONS.md is stale; regenerate it with:\n"
         "  ./build/tests/regen_operations_doc";
  // Every group of both tables has exactly one block.
  doc::CliTables cli;
  std::vector<std::string> groups;
  for (const auto& [program, table] : cli.tables) {
    for (const auto& [title, rows] : table.groups) {
      groups.push_back(program + ", " + title);
    }
  }
  std::sort(blocks.begin(), blocks.end());
  std::sort(groups.begin(), groups.end());
  EXPECT_EQ(blocks, groups);
}

}  // namespace
}  // namespace phantom
