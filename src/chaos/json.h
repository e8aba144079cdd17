// JSON helpers of the chaos report, the supervisor's JSONL checkpoint
// and the triage summary, beyond the shared writer in obs/json.h: an
// exact float format for checkpoints and a reader for their rows.
//
// Everything here is deliberately deterministic: fixed field order,
// fixed float formats, no locale dependence — the report's
// byte-for-byte reproducibility contract rests on it.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace phantom::chaos {

/// Checkpoint float format: %.17g round-trips every finite double
/// exactly, so a resumed search re-renders the identical report.
[[nodiscard]] inline std::string fmt_double_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Minimal reader for the flat single-line JSON objects this module
/// itself emits (checkpoint rows). Not a general JSON parser: it scans
/// for `"key": ` left to right, so callers must query fields in
/// emission order. Every getter returns std::nullopt on malformed or
/// missing input — the checkpoint loader treats that as a corrupt row.
class JsonLineReader {
 public:
  explicit JsonLineReader(const std::string& line) : line_{line} {}

  [[nodiscard]] std::optional<std::string> find_string(const std::string& key) {
    if (!seek(key)) return std::nullopt;
    return read_string_here();
  }

  /// For `"key": ["s1", "s2", ...]` — a flat array of strings (the
  /// checkpoint's flight-recorder field). Nested arrays/objects are not
  /// supported; any non-string element makes the row corrupt.
  [[nodiscard]] std::optional<std::vector<std::string>> find_string_array(
      const std::string& key) {
    if (!seek(key)) return std::nullopt;
    if (pos_ >= line_.size() || line_[pos_] != '[') return std::nullopt;
    ++pos_;
    std::vector<std::string> out;
    skip_spaces();
    if (pos_ < line_.size() && line_[pos_] == ']') {
      ++pos_;
      return out;
    }
    while (pos_ < line_.size()) {
      auto s = read_string_here();
      if (!s) return std::nullopt;
      out.push_back(std::move(*s));
      skip_spaces();
      if (pos_ >= line_.size()) return std::nullopt;
      if (line_[pos_] == ']') {
        ++pos_;
        return out;
      }
      if (line_[pos_] != ',') return std::nullopt;
      ++pos_;
      skip_spaces();
    }
    return std::nullopt;  // unterminated
  }

  [[nodiscard]] std::optional<long long> find_int(const std::string& key) {
    const auto tok = find_token(key);
    if (!tok) return std::nullopt;
    char* end = nullptr;
    const long long v = std::strtoll(tok->c_str(), &end, 10);
    if (end != tok->c_str() + tok->size()) return std::nullopt;
    return v;
  }

  [[nodiscard]] std::optional<double> find_double(const std::string& key) {
    const auto tok = find_token(key);
    if (!tok) return std::nullopt;
    char* end = nullptr;
    const double v = std::strtod(tok->c_str(), &end);
    if (end != tok->c_str() + tok->size()) return std::nullopt;
    return v;
  }

  /// For `"key": null | <number> | true | false` — the raw token.
  [[nodiscard]] std::optional<std::string> find_token(const std::string& key) {
    if (!seek(key)) return std::nullopt;
    std::size_t end = pos_;
    while (end < line_.size() && line_[end] != ',' && line_[end] != '}' &&
           line_[end] != ' ') {
      ++end;
    }
    if (end == pos_) return std::nullopt;
    return line_.substr(pos_, end - pos_);
  }

 private:
  /// Reads a quoted, escaped JSON string starting at pos_.
  [[nodiscard]] std::optional<std::string> read_string_here() {
    if (pos_ >= line_.size() || line_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < line_.size()) {
      const char c = line_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= line_.size()) return std::nullopt;
      const char e = line_[pos_++];
      switch (e) {
        case '"':  out += '"'; break;
        case '\\': out += '\\'; break;
        case '/':  out += '/'; break;
        case 'n':  out += '\n'; break;
        case 't':  out += '\t'; break;
        case 'r':  out += '\r'; break;
        case 'b':  out += '\b'; break;
        case 'f':  out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > line_.size()) return std::nullopt;
          const std::string hex = line_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long v = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4 || v < 0 || v > 0xff) return std::nullopt;
          out += static_cast<char>(v);
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  void skip_spaces() {
    while (pos_ < line_.size() && line_[pos_] == ' ') ++pos_;
  }

  bool seek(const std::string& key) {
    const std::string needle = "\"" + key + "\": ";
    const auto at = line_.find(needle, pos_);
    if (at == std::string::npos) return false;
    pos_ = at + needle.size();
    return true;
  }

  const std::string& line_;
  std::size_t pos_ = 0;
};

}  // namespace phantom::chaos
