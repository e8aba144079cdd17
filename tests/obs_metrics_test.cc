// Registry unit tests: registration rules, snapshot formats, histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace phantom {
namespace {

using obs::Histogram;
using obs::MetricDef;
using obs::MetricType;
using obs::Registry;
using sim::Time;

MetricDef def(const std::string& name, MetricType type) {
  return {name, "test." + name, type, "units", "Test", "help text"};
}

TEST(RegistryTest, DuplicateNameThrows) {
  Registry reg;
  reg.add_counter(def("a", MetricType::kCounter), [] { return 1u; });
  EXPECT_THROW(
      reg.add_counter(def("a", MetricType::kCounter), [] { return 2u; }),
      std::invalid_argument);
  EXPECT_THROW(reg.add_gauge(def("a", MetricType::kGauge), [] { return 0.0; }),
               std::invalid_argument);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RegistryTest, DefsAreSortedByName) {
  Registry reg;
  reg.add_counter(def("zebra", MetricType::kCounter), [] { return 1u; });
  reg.add_counter(def("alpha", MetricType::kCounter), [] { return 2u; });
  reg.add_gauge(def("mid", MetricType::kGauge), [] { return 3.0; });
  const auto defs = reg.defs();
  ASSERT_EQ(defs.size(), 3u);
  EXPECT_EQ(defs[0]->name, "alpha");
  EXPECT_EQ(defs[1]->name, "mid");
  EXPECT_EQ(defs[2]->name, "zebra");
}

TEST(RegistryTest, SnapshotsPullLiveValues) {
  Registry reg;
  std::uint64_t hits = 0;
  reg.add_counter(def("hits", MetricType::kCounter), [&] { return hits; });
  hits = 41;
  const std::string a = reg.snapshot_json(Time::ms(1));
  hits = 42;
  const std::string b = reg.snapshot_json(Time::ms(2));
  EXPECT_NE(a.find("\"value\":41"), std::string::npos) << a;
  EXPECT_NE(b.find("\"value\":42"), std::string::npos) << b;
}

TEST(RegistryTest, JsonSnapshotIsSingleLine) {
  Registry reg;
  reg.add_counter(def("c", MetricType::kCounter), [] { return 7u; });
  reg.add_gauge(def("g", MetricType::kGauge), [] { return 2.5; });
  // Control characters in a name go out escaped, never raw.
  reg.add_gauge(def("tab\there\x01", MetricType::kGauge), [] { return 1.0; });
  const std::string snap = reg.snapshot_json(Time::ms(5));
  EXPECT_EQ(snap.find('\n'), std::string::npos) << snap;
  EXPECT_TRUE(std::none_of(snap.begin(), snap.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  })) << snap;
  EXPECT_NE(snap.find("\"tab\\there\\u0001\""), std::string::npos) << snap;
  EXPECT_EQ(snap.front(), '{');
  EXPECT_EQ(snap.back(), '}');
  EXPECT_NE(snap.find("\"time_ns\":5000000"), std::string::npos);
}

TEST(RegistryTest, CsvSnapshotHasOneRowPerScalarMetric) {
  Registry reg;
  reg.add_counter(def("c", MetricType::kCounter), [] { return 7u; });
  reg.add_gauge(def("g", MetricType::kGauge), [] { return 2.5; });
  const std::string csv = reg.snapshot_csv(Time::ms(10));
  EXPECT_NE(csv.find("10,c,counter,units,7\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("10,g,gauge,units,2.5\n"), std::string::npos) << csv;
  EXPECT_EQ(Registry::csv_header(), "time_ms,name,type,unit,value\n");
}

TEST(HistogramTest, BucketsCountByUpperBoundWithOverflow) {
  Histogram h{{1.0, 10.0, 100.0}};
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (inclusive)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.counts()[0], 0u);
}

TEST(RegistryTest, HistogramSnapshotsExpandBuckets) {
  Registry reg;
  Histogram h{{4.0, 16.0}};
  h.observe(3.0);
  h.observe(20.0);
  reg.add_histogram(def("depth", MetricType::kHistogram), &h);
  const std::string json = reg.snapshot_json(Time::zero());
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos) << json;
  const std::string csv = reg.snapshot_csv(Time::zero());
  EXPECT_NE(csv.find("depth.count"), std::string::npos) << csv;
  EXPECT_NE(csv.find("depth.sum"), std::string::npos) << csv;
}

}  // namespace
}  // namespace phantom
