// Rewrites the generated flag tables of docs/OPERATIONS.md from the
// CLIs' flag tables (see operations_doc.h):
//   ./build/tests/regen_operations_doc
#include <cstdio>
#include <exception>
#include <fstream>

#include "operations_doc.h"

int main() {
  try {
    const std::string page =
        phantom::doc::regenerate(phantom::doc::read_page());
    std::ofstream out{phantom::doc::kOperationsPath, std::ios::binary};
    out << page;
    if (!out) throw std::runtime_error{"cannot write the page"};
    std::printf("wrote %s\n", phantom::doc::kOperationsPath.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
