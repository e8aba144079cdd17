// The flag tables of docs/OPERATIONS.md, generated from the CLIs' own
// flag tables: each block between "<!-- flags: PROGRAM, GROUP -->" and
// "<!-- end flags -->" holds that group's rows as `PROGRAM --help`
// prints them. regenerate() renders every block anew;
// tests/flags_doc_test.cc fails while the page differs from that, and
// ./build/tests/regen_operations_doc rewrites the page.
#pragma once

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chaos/search.h"
#include "exp/flags.h"

#ifndef PHANTOM_SOURCE_DIR
#error "build must define PHANTOM_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace phantom::doc {

inline const std::string kOperationsPath =
    std::string{PHANTOM_SOURCE_DIR} + "/docs/OPERATIONS.md";

/// Both CLIs' tables, bound to default-built arguments.
struct CliTables {
  CliTables() = default;
  CliTables(const CliTables&) = delete;
  CliTables& operator=(const CliTables&) = delete;

  exp::CliArgs cli;
  chaos::CliArgs chaos;
  std::vector<std::pair<std::string, exp::FlagTable>> tables{
      {"phantom_cli", exp::cli_flags(cli)},
      {"phantom_chaos", chaos::cli_flags(chaos)}};
};

inline std::string read_page() {
  std::ifstream in{kOperationsPath, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + kOperationsPath};
  std::ostringstream page;
  page << in.rdbuf();
  return page.str();
}

/// The rows of group `title` as `table`'s --help prints them; "" when it
/// has no such group.
inline std::string group_rows(const exp::FlagTable& table,
                              const std::string& title) {
  const std::string help = exp::help_text(table);
  const std::size_t heading = help.find("\n" + title + ":\n");
  if (heading == std::string::npos) return "";
  const std::size_t begin = heading + title.size() + 3;
  const std::size_t end = help.find("\n\n", begin);
  return help.substr(begin, end == std::string::npos ? end : end + 1 - begin);
}

/// `page` with each generated block rendered anew; appends the
/// "PROGRAM, GROUP" of each block to `blocks`.
inline std::string regenerate(const std::string& page,
                              std::vector<std::string>* blocks = nullptr) {
  const CliTables cli;
  const std::string open = "<!-- flags: ";
  const std::string close = "<!-- end flags -->\n";
  std::string out;
  std::size_t pos = 0;
  for (std::size_t at; (at = page.find(open, pos)) != std::string::npos;) {
    const std::size_t eol = page.find(" -->\n", at);
    const std::size_t end = page.find(close, eol);
    if (end == std::string::npos) {
      throw std::runtime_error{"unterminated flags block at byte " +
                               std::to_string(at)};
    }
    const std::string name =
        page.substr(at + open.size(), eol - at - open.size());
    std::string rows;
    for (const auto& [program, table] : cli.tables) {
      if (name.rfind(program + ", ", 0) == 0) {
        rows = group_rows(table, name.substr(program.size() + 2));
      }
    }
    if (rows.empty()) throw std::runtime_error{"no flag group " + name};
    out += page.substr(pos, eol + 5 - pos) + "```text\n" + rows + "```\n";
    pos = end;
    if (blocks != nullptr) blocks->push_back(name);
  }
  return out + page.substr(pos);
}

}  // namespace phantom::doc
