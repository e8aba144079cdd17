#include "tcp/tcp_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace phantom::tcp {
namespace {

using sim::Simulator;
using sim::Time;

struct SinkFixture {
  Simulator sim;
  std::vector<Packet> acks;
  TcpSink sink{sim, 1, [this](Packet p) { acks.push_back(p); }};

  Packet seg(std::int64_t seq, std::int64_t len = 512) {
    return Packet::data(1, seq, len);
  }
};

TEST(TcpSinkTest, InOrderDeliveryAdvancesCumulativeAck) {
  SinkFixture f;
  f.sink.receive_packet(f.seg(0));
  f.sink.receive_packet(f.seg(512));
  ASSERT_EQ(f.acks.size(), 2u);
  EXPECT_EQ(f.acks[0].ack, 512);
  EXPECT_EQ(f.acks[1].ack, 1024);
  EXPECT_EQ(f.sink.delivered_bytes(), 1024);
}

TEST(TcpSinkTest, GapProducesDuplicateAcks) {
  SinkFixture f;
  f.sink.receive_packet(f.seg(0));
  f.sink.receive_packet(f.seg(1024));  // hole at 512
  f.sink.receive_packet(f.seg(1536));
  ASSERT_EQ(f.acks.size(), 3u);
  EXPECT_EQ(f.acks[1].ack, 512);
  EXPECT_EQ(f.acks[2].ack, 512);
  EXPECT_EQ(f.sink.out_of_order_segments(), 2u);
}

TEST(TcpSinkTest, FillingHoleReleasesBufferedData) {
  SinkFixture f;
  f.sink.receive_packet(f.seg(0));
  f.sink.receive_packet(f.seg(1024));
  f.sink.receive_packet(f.seg(1536));
  f.sink.receive_packet(f.seg(512));  // plugs the hole
  EXPECT_EQ(f.acks.back().ack, 2048);
  EXPECT_EQ(f.sink.delivered_bytes(), 2048);
}

TEST(TcpSinkTest, NonAdjacentRangesMergeCorrectly) {
  SinkFixture f;
  f.sink.receive_packet(f.seg(1024));
  f.sink.receive_packet(f.seg(2048));
  f.sink.receive_packet(f.seg(512));   // adjacent to 1024 range
  f.sink.receive_packet(f.seg(0));     // plugs everything up to 1536
  EXPECT_EQ(f.acks.back().ack, 1536);
  f.sink.receive_packet(f.seg(1536));  // plugs the final hole
  EXPECT_EQ(f.acks.back().ack, 2560);
}

TEST(TcpSinkTest, DuplicateSegmentsCountedAndReAcked) {
  SinkFixture f;
  f.sink.receive_packet(f.seg(0));
  f.sink.receive_packet(f.seg(0));
  EXPECT_EQ(f.sink.duplicate_segments(), 1u);
  EXPECT_EQ(f.acks.back().ack, 512);
}

TEST(TcpSinkTest, EchoesTimestampAndEfci) {
  SinkFixture f;
  Packet p = f.seg(0);
  p.timestamp = Time::ms(42);
  p.efci = true;
  f.sink.receive_packet(p);
  ASSERT_EQ(f.acks.size(), 1u);
  EXPECT_EQ(f.acks[0].timestamp, Time::ms(42));
  EXPECT_TRUE(f.acks[0].ack_efci);
}

TEST(TcpSinkTest, IgnoresForeignFlowsAndNonData) {
  SinkFixture f;
  f.sink.receive_packet(Packet::data(2, 0, 512));  // wrong flow
  f.sink.receive_packet(Packet::make_ack(1, 100));
  f.sink.receive_packet(Packet::source_quench(1));
  EXPECT_TRUE(f.acks.empty());
  EXPECT_EQ(f.sink.delivered_bytes(), 0);
}

TEST(TcpSinkTest, RequiresEmitter) {
  Simulator sim;
  EXPECT_THROW((TcpSink{sim, 1, nullptr}), std::invalid_argument);
}

/// Reference receiver: the set of bytes received so far, with the
/// cumulative ACK taken as the first byte missing from it.
class ByteSetReceiver {
 public:
  void receive(std::int64_t start, std::int64_t end) {
    if (start > ack_) ++out_of_order_;
    for (std::int64_t b = start; b < end; ++b) bytes_.insert(b);
    while (bytes_.count(ack_) != 0) ++ack_;
  }
  [[nodiscard]] std::int64_t ack() const { return ack_; }
  [[nodiscard]] std::uint64_t out_of_order() const { return out_of_order_; }

 private:
  std::set<std::int64_t> bytes_;
  std::int64_t ack_ = 0;
  std::uint64_t out_of_order_ = 0;
};

// Random permutations of a window of segments, with duplicates and
// segments overlapping several others, against the byte-set reference.
TEST(TcpSinkTest, ReassemblyMatchesByteSetReference) {
  constexpr std::int64_t kMss = 100;
  constexpr std::int64_t kWindow = 24 * kMss;
  std::mt19937 rng{1996};
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::pair<std::int64_t, std::int64_t>> segments;
    for (std::int64_t seq = 0; seq < kWindow; seq += kMss) {
      segments.emplace_back(seq, kMss);
    }
    const int extras = static_cast<int>(rng() % 16);
    for (int k = 0; k < extras; ++k) {
      if (rng() % 2 == 0) {
        segments.push_back(segments[rng() % segments.size()]);  // duplicate
      } else {
        const auto start = static_cast<std::int64_t>(rng() % kWindow);
        const auto len = 1 + static_cast<std::int64_t>(rng() % (4 * kMss));
        segments.emplace_back(start, std::min(len, kWindow - start));
      }
    }
    std::shuffle(segments.begin(), segments.end(), rng);

    SinkFixture f;
    ByteSetReceiver ref;
    for (const auto& [seq, len] : segments) {
      f.sink.receive_packet(f.seg(seq, len));
      ref.receive(seq, seq + len);
      ASSERT_FALSE(f.acks.empty());
      ASSERT_EQ(f.acks.back().ack, ref.ack()) << "segment " << seq << "+" << len;
      ASSERT_EQ(f.sink.delivered_bytes(), ref.ack());
    }
    EXPECT_EQ(f.acks.size(), segments.size());
    EXPECT_EQ(f.sink.out_of_order_segments(), ref.out_of_order());
    EXPECT_EQ(f.sink.delivered_bytes(), kWindow);
  }
}

}  // namespace
}  // namespace phantom::tcp
