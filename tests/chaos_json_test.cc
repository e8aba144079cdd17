// JSON emission: escaping of quotes, backslashes and control bytes;
// whole-report validity under hostile field contents; exact double
// round-trips for the checkpoint format.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/json.h"
#include "chaos/search.h"
#include "obs/json.h"

namespace phantom {
namespace {

/// Minimal strict JSON validator: enough grammar to prove the report is
/// parseable (objects, arrays, strings with legal escapes only, numbers,
/// literals) without pulling in a JSON library the repo doesn't have.
struct JsonValidator {
  const std::string& s;
  std::size_t p = 0;

  void ws() {
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
  }
  bool lit(const char* t) {
    const std::size_t n = std::strlen(t);
    if (s.compare(p, n, t) != 0) return false;
    p += n;
    return true;
  }
  bool string() {
    if (p >= s.size() || s[p] != '"') return false;
    ++p;
    while (p < s.size()) {
      const char c = s[p++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (p >= s.size()) return false;
        const char e = s[p++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i, ++p) {
            if (p >= s.size() ||
                !std::isxdigit(static_cast<unsigned char>(s[p]))) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = p;
    if (p < s.size() && s[p] == '-') ++p;
    while (p < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[p])) ||
            std::strchr(".eE+-", s[p]) != nullptr)) {
      ++p;
    }
    return p > start && std::isdigit(static_cast<unsigned char>(s[p - 1]));
  }
  bool members(char close) {
    while (true) {
      ws();
      if (close == '}') {
        if (!string()) return false;
        ws();
        if (p >= s.size() || s[p++] != ':') return false;
      }
      if (!value()) return false;
      ws();
      if (p < s.size() && s[p] == ',') {
        ++p;
        continue;
      }
      if (p < s.size() && s[p] == close) {
        ++p;
        return true;
      }
      return false;
    }
  }
  bool value() {
    ws();
    if (p >= s.size()) return false;
    const char c = s[p];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++p;
      ws();
      if (p < s.size() && s[p] == close) {
        ++p;
        return true;
      }
      return members(close);
    }
    if (c == '"') return string();
    if (lit("true") || lit("false") || lit("null")) return true;
    return number();
  }
};

bool is_valid_json(const std::string& text) {
  JsonValidator v{text};
  if (!v.value()) return false;
  v.ws();
  return v.p == text.size();
}

TEST(JsonTest, ValidatorRejectsBrokenDocuments) {
  EXPECT_TRUE(is_valid_json(R"({"a": [1, -2.5e3, "x\n\"y\""], "b": null})"));
  EXPECT_FALSE(is_valid_json(R"({"a": "unescaped " quote"})"));
  EXPECT_FALSE(is_valid_json(R"({"a": "bad \q escape"})"));
  EXPECT_FALSE(is_valid_json(R"({"a": 1)"));
  EXPECT_FALSE(is_valid_json("{\"a\": \"raw\ncontrol\"}"));
}

TEST(JsonTest, EscapesMandatoryAndControlCharacters) {
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
  EXPECT_EQ(obs::json_escape(std::string{"\x01\x1f"}), "\\u0001\\u001f");
  EXPECT_EQ(obs::json_escape("plain text"), "plain text");
}

TEST(JsonTest, EscapedStringsRoundTripThroughTheLineReader) {
  const std::string hostile = "q\" b\\ n\n t\t ctl\x01 end";
  const std::string line =
      "{\"detail\": \"" + obs::json_escape(hostile) + "\"}";
  EXPECT_TRUE(is_valid_json(line)) << line;
  chaos::JsonLineReader reader{line};
  const auto back = reader.find_string("detail");
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, hostile);
}

TEST(JsonTest, ExactDoubleFormatRoundTripsBitForBit) {
  for (const double v : {0.1 + 0.2, 9.40592, 1.0 / 3.0, -1e-300, 0.0}) {
    const std::string text = chaos::fmt_double_exact(v);
    char* end = nullptr;
    const double back = std::strtod(text.c_str(), &end);
    EXPECT_EQ(end, text.c_str() + text.size()) << text;
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text;
  }
}

// Arbitrary bytes in details, plans, stderr tails and fingerprints —
// quotes, backslashes, newlines, control characters — must never
// produce an unparseable report.
TEST(JsonTest, HostileReportContentsStayValidJson) {
  chaos::SearchReport report;
  report.spec.rate_mbps = 40.0;
  report.trials_run = 1;
  report.baseline_share_mbps = 9.40592;

  chaos::Failure f;
  f.trial = 0;
  f.result.verdict = chaos::Verdict::kProcessCrash;
  f.result.detail = "she said \"boom\" \\ and\nleft\ttown \x01";
  f.result.crash_signal = "SIGSEGV";
  f.result.exit_code = 0;
  f.result.stderr_tail = "C:\\path\\\"quoted\"\r\n\x02 bytes";
  f.shrunk_result = f.result;
  report.failures.push_back(f);

  chaos::TriagedClass c;
  c.fingerprint = "process-crash|SIGSEGV|say \"hi\" \\";
  c.verdict = chaos::Verdict::kProcessCrash;
  c.signal = "SIGSEGV";
  c.sample_detail = f.result.detail;
  c.trials = {0};
  report.classes.push_back(c);

  const std::string json = report.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\\\"boom\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\ and\\nleft"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);

  // The decoded detail survives the trip exactly.
  chaos::JsonLineReader reader{json};
  EXPECT_EQ(reader.find_string("detail"), f.result.detail);
}

}  // namespace
}  // namespace phantom
