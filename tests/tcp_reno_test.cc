// Reno window dynamics, driven by hand-crafted ACK streams.
#include "tcp/reno.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace phantom::tcp {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

struct RenoFixture {
  Simulator sim;
  std::vector<Packet> sent;
  RenoConfig config;
  std::unique_ptr<RenoSource> src;

  explicit RenoFixture(RenoConfig cfg = {}) : config{cfg} {
    src = std::make_unique<RenoSource>(
        sim, 1, config, [this](Packet p) { sent.push_back(p); });
  }

  void start() {
    src->start(Time::zero());
    sim.run_until(Time::us(1));
  }

  /// Delivers a cumulative ACK (echoing ts for a clean RTT sample).
  void ack(std::int64_t ack_no, Time echo = Time::zero(), bool efci = false) {
    Packet a = Packet::make_ack(1, ack_no);
    a.timestamp = echo.is_zero() ? sim.now() : echo;
    a.ack_efci = efci;
    src->receive_packet(a);
  }
};

TEST(RenoTest, StartsInSlowStartWithOneSegment) {
  RenoFixture f;
  f.start();
  ASSERT_EQ(f.sent.size(), 1u);
  EXPECT_EQ(f.sent[0].seq, 0);
  EXPECT_EQ(f.sent[0].payload, 512);
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(), 512.0);
}

TEST(RenoTest, SlowStartDoublesPerRtt) {
  RenoFixture f;
  f.start();
  // ACK the first segment: cwnd 1 -> 2 mss, two segments go out.
  f.ack(512);
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(), 1024.0);
  EXPECT_EQ(f.sent.size(), 3u);
  // ACK both: cwnd -> 4 mss.
  f.ack(1024);
  f.ack(1536);
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(), 2048.0);
}

TEST(RenoTest, CongestionAvoidanceGrowsLinearly) {
  RenoConfig cfg;
  cfg.initial_ssthresh = 1024;  // leave slow start quickly
  RenoFixture f{cfg};
  f.start();
  f.ack(512);   // cwnd = 1024 = ssthresh
  const double before = f.src->cwnd_bytes();
  f.ack(1024);  // now in congestion avoidance: += mss*mss/cwnd
  EXPECT_NEAR(f.src->cwnd_bytes() - before, 512.0 * 512.0 / before, 1.0);
}

TEST(RenoTest, ThreeDupAcksTriggerFastRetransmit) {
  RenoFixture f;
  f.start();
  f.ack(512);
  f.ack(1024);  // cwnd 4 mss; flight: 1024..3072
  f.ack(1536);
  const auto sent_before = f.sent.size();
  f.ack(1536);  // dup 1
  f.ack(1536);  // dup 2
  EXPECT_EQ(f.src->fast_retransmits(), 0u);
  f.ack(1536);  // dup 3 -> fast retransmit
  EXPECT_EQ(f.src->fast_retransmits(), 1u);
  EXPECT_TRUE(f.src->in_fast_recovery());
  ASSERT_GT(f.sent.size(), sent_before);
  EXPECT_EQ(f.sent[sent_before].seq, 1536);  // retransmitted snd_una first
  // ssthresh = flight/2; cwnd = ssthresh + 3 mss.
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(),
                   static_cast<double>(f.src->ssthresh_bytes()) + 3 * 512);
}

TEST(RenoTest, NewAckExitsFastRecoveryAndDeflates) {
  RenoFixture f;
  f.start();
  f.ack(512);
  f.ack(1024);
  f.ack(1536);
  for (int i = 0; i < 3; ++i) f.ack(1536);
  ASSERT_TRUE(f.src->in_fast_recovery());
  f.ack(3072);  // everything repaired
  EXPECT_FALSE(f.src->in_fast_recovery());
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(),
                   static_cast<double>(f.src->ssthresh_bytes()));
}

TEST(RenoTest, DupAcksInflateWindowDuringRecovery) {
  RenoFixture f;
  f.start();
  f.ack(512);
  f.ack(1024);
  f.ack(1536);
  for (int i = 0; i < 3; ++i) f.ack(1536);
  const double during = f.src->cwnd_bytes();
  f.ack(1536);  // 4th dup: inflation
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(), during + 512);
}

TEST(RenoTest, TimeoutCollapsesToOneSegmentAndRetransmits) {
  RenoFixture f;
  f.start();
  f.ack(512);
  f.ack(1024);  // some window built up
  const auto before = f.sent.size();
  // No more ACKs: wait for the RTO to fire.
  f.sim.run_until(Time::sec(3));
  EXPECT_GE(f.src->timeouts(), 1u);
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(), 512.0);
  ASSERT_GT(f.sent.size(), before);
  EXPECT_EQ(f.sent[before].seq, 1024);  // go-back-N from snd_una
}

TEST(RenoTest, TimeoutBacksOffExponentially) {
  RenoFixture f;
  f.start();
  f.sim.run_until(Time::sec(10));
  // Repeated timeouts without progress: rto grows (Karn).
  EXPECT_GE(f.src->timeouts(), 3u);
  EXPECT_GT(f.src->rto(), f.config.rto_initial);
}

TEST(RenoTest, RttSampleSeedsSrttAndRto) {
  RenoFixture f;
  f.start();
  f.sim.run_until(Time::ms(100));
  f.ack(512, /*echo=*/Time::ms(60));  // RTT sample = 40 ms
  EXPECT_EQ(f.src->smoothed_rtt(), Time::ms(40));
  // rto = srtt + 4*rttvar = 40 + 4*20 = 120 ms -> clamped to >= 200.
  EXPECT_EQ(f.src->rto(), Time::ms(200));
}

TEST(RenoTest, EfciEchoSuppressesGrowth) {
  RenoFixture f;
  f.start();
  f.ack(512, Time::zero(), /*efci=*/true);
  // Window must not have grown.
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(), 512.0);
  // But data keeps flowing (the ACK still slides the window).
  EXPECT_EQ(f.sent.size(), 2u);
}

TEST(RenoTest, EfciReactionCanBeDisabled) {
  RenoConfig cfg;
  cfg.react_to_efci = false;
  RenoFixture f{cfg};
  f.start();
  f.ack(512, Time::zero(), /*efci=*/true);
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(), 1024.0);
}

TEST(RenoTest, SourceQuenchCollapsesWindow) {
  RenoFixture f;
  f.start();
  for (int i = 1; i <= 6; ++i) f.ack(512 * i);
  ASSERT_GT(f.src->cwnd_bytes(), 2048.0);
  f.src->receive_packet(Packet::source_quench(1));
  EXPECT_EQ(f.src->quenches_received(), 1u);
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(), 512.0);
}

TEST(RenoTest, RepeatedQuenchesWithinRttCollapseOnlyOnce) {
  RenoFixture f;
  f.start();
  for (int i = 1; i <= 6; ++i) f.ack(512 * i);
  f.src->receive_packet(Packet::source_quench(1));
  // Window regrows a little...
  f.ack(512 * 7);
  const double after_growth = f.src->cwnd_bytes();
  ASSERT_GT(after_growth, 512.0);
  // ...and an immediate second quench is ignored.
  f.src->receive_packet(Packet::source_quench(1));
  EXPECT_DOUBLE_EQ(f.src->cwnd_bytes(), after_growth);
}

TEST(RenoTest, CrTracksAckedPayloadRate) {
  RenoFixture f;
  f.start();
  // Ack 10 segments within the first CR interval (10 ms).
  f.sim.run_until(Time::ms(5));
  for (int i = 1; i <= 10; ++i) f.ack(512 * i);
  f.sim.run_until(Time::ms(11));  // CR tick at 10 ms
  // 5120 bytes / 10 ms = 4.096 Mb/s.
  EXPECT_NEAR(f.src->current_rate().mbits_per_sec(), 4.096, 1e-6);
  // Stamped into subsequent packets.
  f.ack(512 * 11);
  EXPECT_NEAR(f.sent.back().cr.mbits_per_sec(), 4.096, 1e-6);
}

TEST(RenoTest, ConfigValidation) {
  Simulator sim;
  RenoConfig bad;
  bad.mss = 0;
  EXPECT_THROW((RenoSource{sim, 1, bad, [](Packet) {}}),
               std::invalid_argument);
  bad = {};
  bad.initial_ssthresh = 512;
  EXPECT_THROW((RenoSource{sim, 1, bad, [](Packet) {}}),
               std::invalid_argument);
  EXPECT_THROW((RenoSource{sim, 1, RenoConfig{}, nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace phantom::tcp
