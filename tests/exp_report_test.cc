#include "exp/report.h"

#include <gtest/gtest.h>

#include "exp/factories.h"

namespace phantom::exp {
namespace {

TEST(TableTest, RejectsEmptyHeaderAndMismatchedRows) {
  EXPECT_THROW(Table{std::vector<std::string>{}}, std::invalid_argument);
  Table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_NO_THROW(t.add_row({"1", "2"}));
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(47.5), "47.50");
  EXPECT_EQ(Table::num(47.513, 1), "47.5");
  EXPECT_EQ(Table::num(1.0, 0), "1");
}

TEST(TableTest, PrintDoesNotCrash) {
  Table t{{"algorithm", "goodput"}};
  t.add_row({"Phantom", Table::num(47.5)});
  t.add_row({"EPRCA", Table::num(44.1)});
  testing::internal::CaptureStdout();
  t.print();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("Phantom"), std::string::npos);
  EXPECT_NE(out.find("47.50"), std::string::npos);
}

TEST(SeriesPrintTest, DecimatesLongSeries) {
  sim::Trace trace;
  for (int i = 0; i < 1000; ++i) {
    trace.record(sim::Time::ms(i), static_cast<double>(i));
  }
  testing::internal::CaptureStdout();
  print_series("x", trace.samples(), 1.0, 10);
  const std::string out = testing::internal::GetCapturedStdout();
  // Roughly 10 rows + final, not 1000.
  const auto rows = std::count(out.begin(), out.end(), '\n');
  EXPECT_LE(rows, 15);
  EXPECT_NE(out.find("(final)"), std::string::npos);
}

TEST(SeriesPrintTest, EmptySeriesHandled) {
  testing::internal::CaptureStdout();
  print_series("empty", {}, 1.0);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("(empty)"), std::string::npos);
}

TEST(FactoriesTest, NamesMatchControllers) {
  sim::Simulator sim;
  for (const auto alg : {Algorithm::kPhantom, Algorithm::kEprca,
                         Algorithm::kAprc, Algorithm::kCapc}) {
    auto factory = make_factory(alg);
    ASSERT_TRUE(factory);
    auto ctl = factory(sim, sim::Rate::mbps(150));
    ASSERT_TRUE(ctl);
    EXPECT_FALSE(ctl->name().empty());
  }
  EXPECT_EQ(to_string(Algorithm::kPhantom), "Phantom");
  EXPECT_EQ(to_string(Algorithm::kCapc), "CAPC");
}

TEST(FactoriesTest, PhantomFactoryHonoursConfig) {
  sim::Simulator sim;
  core::PhantomConfig cfg;
  cfg.initial_macr = sim::Rate::mbps(2);  // above the 1% relative floor
  auto ctl = make_phantom_factory(cfg)(sim, sim::Rate::mbps(150));
  EXPECT_DOUBLE_EQ(ctl->fair_share().mbits_per_sec(), 2.0);
}

}  // namespace
}  // namespace phantom::exp
