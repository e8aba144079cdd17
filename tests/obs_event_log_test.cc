// EventLog unit tests: ring wraparound, filtering, export formats.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_log.h"

namespace phantom {
namespace {

using obs::Category;
using obs::Event;
using obs::EventKind;
using obs::EventLog;
using sim::Time;

/// Minimal recursive-descent JSON syntax checker — enough to prove an
/// export is well-formed without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_{&text} {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_->size();
  }

 private:
  [[nodiscard]] char peek() const {
    return pos_ < s_->size() ? (*s_)[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < s_->size() &&
           std::isspace(static_cast<unsigned char>((*s_)[pos_])) != 0) {
      ++pos_;
    }
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string_view{lit}.size();
    if (s_->compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_->size()) {
      const char c = (*s_)[pos_++];
      if (c == '\\') {
        if (pos_ >= s_->size()) return false;
        ++pos_;
      } else if (c == '"') {
        return true;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // JSON strings hold no raw control characters
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default:  return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  const std::string* s_;
  std::size_t pos_ = 0;
};

Event make_event(EventKind kind, std::int64_t t_ns, std::int32_t vc = -1,
                 std::int16_t node = -1, std::int16_t port = -1) {
  Event e;
  e.kind = kind;
  e.time = Time::ns(t_ns);
  e.vc = vc;
  e.node = node;
  e.port = port;
  return e;
}

TEST(EventLogTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventLog{100}.capacity(), 128u);
  EXPECT_EQ(EventLog{1}.capacity(), 16u);  // floor: a useful recorder
  EXPECT_EQ(EventLog{256}.capacity(), 256u);
}

TEST(EventLogTest, RingWrapsAndKeepsTheNewestEvents) {
  EventLog log{16};
  for (int i = 0; i < 40; ++i) {
    log.record(make_event(EventKind::kCellEnqueue, i, i));
  }
  EXPECT_EQ(log.recorded(), 40u);
  EXPECT_EQ(log.size(), 16u);
  EXPECT_EQ(log.overwritten(), 24u);
  // Oldest-first iteration must yield exactly vcs 24..39.
  std::int32_t expect = 24;
  log.for_each([&](const Event& e) { EXPECT_EQ(e.vc, expect++); });
  EXPECT_EQ(expect, 40);
}

TEST(EventLogTest, FilterByVcNodePortAndCategory) {
  EventLog log{64};
  log.record(make_event(EventKind::kCellEnqueue, 1, 7, 0, 0));
  log.record(make_event(EventKind::kCellDrop, 2, 8, 0, 1));
  log.record(make_event(EventKind::kRmForward, 3, 7, 1, 0));
  log.record(make_event(EventKind::kRateUpdate, 4, -1, 1, 0));

  EventLog::Filter by_vc;
  by_vc.vc = 7;
  EXPECT_EQ(log.tail_jsonl(10, by_vc).size(), 2u);

  EventLog::Filter by_cat;
  by_cat.category = Category::kCell;
  EXPECT_EQ(log.tail_jsonl(10, by_cat).size(), 2u);

  EventLog::Filter by_node;
  by_node.node = 1;
  EXPECT_EQ(log.tail_jsonl(10, by_node).size(), 2u);

  EventLog::Filter by_port;
  by_port.port = 1;
  EXPECT_EQ(log.tail_jsonl(10, by_port).size(), 1u);

  EventLog::Filter combined;  // axes AND together
  combined.vc = 7;
  combined.category = Category::kRm;
  const auto lines = log.tail_jsonl(10, combined);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"kind\":\"rm_forward\""), std::string::npos);
}

TEST(EventLogTest, TailKeepsTheLastNOldestFirst) {
  EventLog log{64};
  for (int i = 0; i < 10; ++i) {
    log.record(make_event(EventKind::kCellEnqueue, i, i));
  }
  const auto tail = log.tail_jsonl(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_NE(tail[0].find("\"vc\":7"), std::string::npos);
  EXPECT_NE(tail[2].find("\"vc\":9"), std::string::npos);
}

// A source that runs a send late records its decay under the send's
// instant, after events at later instants: every export is in time
// order, and events at one instant keep the order they were recorded in.
TEST(EventLogTest, ExportsInTimeOrderKeepingTheRecordOrderOfTies) {
  EventLog log{16};
  log.record(make_event(EventKind::kCellEnqueue, 10, 1));
  log.record(make_event(EventKind::kCellEnqueue, 30, 2));
  log.record(make_event(EventKind::kSourceRate, 20, 3));  // late
  log.record(make_event(EventKind::kCellEnqueue, 20, 4));
  log.record(make_event(EventKind::kSourceRate, 10, 5));  // late
  std::vector<std::int32_t> vcs;
  log.for_each([&](const Event& e) { vcs.push_back(e.vc); });
  EXPECT_EQ(vcs, (std::vector<std::int32_t>{1, 5, 3, 4, 2}));
  const std::string jsonl = log.to_jsonl();
  EXPECT_LT(jsonl.find("\"vc\":5"), jsonl.find("\"vc\":3"));
  EXPECT_LT(jsonl.find("\"vc\":4"), jsonl.find("\"vc\":2"));
  const auto tail = log.tail_jsonl(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_NE(tail[0].find("\"vc\":4"), std::string::npos);
  EXPECT_NE(tail[1].find("\"vc\":2"), std::string::npos);
  const std::string trace = log.to_chrome_trace();
  EXPECT_LT(trace.find("\"ts\":0.010,"), trace.find("\"ts\":0.020,"));
  EXPECT_LT(trace.find("\"ts\":0.020,"), trace.find("\"ts\":0.030,"));
}

TEST(EventLogTest, InternReturnsStableIdsAndLabelsRoundTrip) {
  EventLog log{16};
  const auto a = log.intern("outage on trunk0");
  const auto b = log.intern("restart dest0");
  const auto a2 = log.intern("outage on trunk0");
  EXPECT_NE(a, 0);
  EXPECT_NE(b, a);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(log.label(a), "outage on trunk0");
  EXPECT_EQ(log.label(0), "");
}

TEST(EventLogTest, JsonlIsDeterministicForIdenticalRecordings) {
  const auto fill = [](EventLog& log) {
    for (int i = 0; i < 100; ++i) {
      Event e = make_event(EventKind::kRmBackward, i * 17, i % 5, 0, 0);
      e.a = 12.5 + i;
      e.b = 3.25 * i;
      e.c = 140.0;
      log.record(e);
    }
  };
  EventLog a{64}, b{64};
  fill(a);
  fill(b);
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());  // byte-identical
}

TEST(EventLogTest, EveryJsonlLineIsValidJson) {
  EventLog log{64};
  log.record(make_event(EventKind::kCellDrop, 1, 3, 0, 0));
  Event fault = make_event(EventKind::kFaultFired, 2);
  fault.label = log.intern("outage \"quoted\" \\ and\ncontrol\x01");
  log.record(fault);
  Event cac = make_event(EventKind::kCacRefusal, 3, 9, 1, -1);
  cac.detail = 2;
  cac.a = 1.5;
  log.record(cac);
  const std::string jsonl = log.to_jsonl();
  std::size_t start = 0, lines = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = jsonl.substr(start, end - start);
    EXPECT_TRUE(JsonChecker{line}.valid()) << line;
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(EventLogTest, ChromeTraceIsValidJsonWithNamedTracks) {
  EventLog log{64};
  log.set_node_name(0, "bottleneck");
  log.record(make_event(EventKind::kCellEnqueue, 1, 3, 0, 0));
  log.record(make_event(EventKind::kRmForward, 2, 3, 0, 0));  // VC track
  Event rate = make_event(EventKind::kRateUpdate, 3, -1, 0, 0);
  rate.a = 48.5;
  log.record(rate);
  const std::string trace = log.to_chrome_trace();
  EXPECT_TRUE(JsonChecker{trace}.valid()) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"bottleneck\""), std::string::npos);  // process_name
  EXPECT_NE(trace.find("\"VC sessions\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);  // counter track
}

TEST(EventLogTest, ClearForgetsEventsButKeepsLabels) {
  EventLog log{16};
  const auto id = log.intern("kept");
  log.record(make_event(EventKind::kCellEnqueue, 1));
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.to_jsonl(), "");
  EXPECT_EQ(log.label(id), "kept");
}

TEST(EventLogTest, TapStampsItsIdsWhereTheEventLeavesThemUnset) {
  EventLog log{16};
  EXPECT_FALSE(obs::Tap{});
  const obs::Tap tap{&log, 3, 5};
  ASSERT_TRUE(tap);
  tap.record(make_event(EventKind::kCellEnqueue, 1, 7));
  tap.record(make_event(EventKind::kRmForward, 2, 7, -1, 9));  // own port
  obs::Tap{&log}.record(make_event(EventKind::kSourceRate, 3, 7));
  std::vector<std::pair<int, int>> ids;
  log.for_each([&](const Event& e) { ids.emplace_back(e.node, e.port); });
  EXPECT_EQ(ids, (std::vector<std::pair<int, int>>{{3, 5}, {3, 9}, {-1, -1}}));
}

}  // namespace
}  // namespace phantom
