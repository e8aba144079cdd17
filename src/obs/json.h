// The one JSON string and number writer: metrics snapshots, event-log
// exports and the chaos reports all format through it.
//
// Deterministic by construction (fixed float format, no locale), and
// strict: every control character is escaped, so the output is valid
// JSON whatever a metric name, label or report field contains.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace phantom::obs {

/// Appends `s` escaped for a JSON string literal: `"` and `\`, the
/// control-character shorthands, and \u00XX for every other control
/// character.
inline void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_escaped(out, s);
  return out;
}

/// The report float format: compact and stable (%.6g).
inline void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

[[nodiscard]] inline std::string fmt_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

}  // namespace phantom::obs
