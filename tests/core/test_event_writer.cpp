// Backpressure-policy unit tests for SessionEventWriter (the non-blocking
// event path of a protocol session): overflow drops oldest progress ticks
// only, never drops or reorders must-deliver lines; a must-deliver
// overflow disconnects with the protocol error line; queue_stats counters
// match the injected load exactly.
#include "core/event_writer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/transport.hpp"

namespace iddq::core {
namespace {

using support::LineChannel;

constexpr auto kDroppable = EventDeliveryClass::droppable;
constexpr auto kMust = EventDeliveryClass::must_deliver;

/// A channel whose writes block until the test opens the gate — the
/// deterministic stand-in for a client that stopped reading its socket.
class GatedChannel final : public LineChannel {
 public:
  bool read_line(std::string&) override { return false; }

  bool write_line(std::string_view line) override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++blocked_writes_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_ || shut_; });
    if (shut_) return false;
    lines_.emplace_back(line);
    return true;
  }

  void shutdown_write() override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      shut_ = true;
    }
    cv_.notify_all();
  }

  void open() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Returns once some write_line call has reached the closed gate.
  void wait_until_blocked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return blocked_writes_ > 0; });
  }

  std::vector<std::string> lines() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  bool shut_ = false;
  int blocked_writes_ = 0;
  std::vector<std::string> lines_;
};

/// Posts a sentinel and waits until the writer thread has popped it (and
/// is blocked writing it through the closed gate). From here on the queue
/// fills without the writer consuming, so overflow tests are exact. The
/// sentinel on the wire counts toward the bound, so each test's bound is
/// one more than the lines it queues behind it.
void park_writer(SessionEventWriter& writer) {
  ASSERT_TRUE(writer.post("sentinel", kMust));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (writer.stats().depth > 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "writer thread never picked up the sentinel";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(EventWriter, DropsOldestProgressNeverRows) {
  GatedChannel channel;
  bool disconnect_fired = false;
  {
    SessionEventWriter writer(
        channel, 5, [&] { disconnect_fired = true; }, "overflow");
    park_writer(writer);

    ASSERT_TRUE(writer.post("p1", kDroppable));
    ASSERT_TRUE(writer.post("p2", kDroppable));
    ASSERT_TRUE(writer.post("r1", kMust));
    ASSERT_TRUE(writer.post("r2", kMust));
    // Full. A new tick reclaims the oldest tick (p1)...
    ASSERT_TRUE(writer.post("p3", kDroppable));
    // ...and a must-deliver line reclaims the next-oldest tick (p2).
    ASSERT_TRUE(writer.post("r3", kMust));
    EXPECT_FALSE(writer.disconnected());

    channel.open();
    writer.flush();
  }
  EXPECT_FALSE(disconnect_fired);
  // Survivors in original relative order; no row dropped or reordered.
  EXPECT_EQ(channel.lines(),
            (std::vector<std::string>{"sentinel", "r1", "r2", "p3", "r3"}));
}

TEST(EventWriter, IncomingTickShedWhenQueueIsAllMustDeliver) {
  GatedChannel channel;
  SessionEventWriter writer(channel, 3, nullptr, "overflow");
  park_writer(writer);

  ASSERT_TRUE(writer.post("r1", kMust));
  ASSERT_TRUE(writer.post("r2", kMust));
  // No queued tick to reclaim: the incoming tick itself is shed, and
  // that still counts as delivered-enough (post succeeds).
  ASSERT_TRUE(writer.post("p1", kDroppable));
  EXPECT_EQ(writer.stats().dropped_progress, 1u);
  EXPECT_FALSE(writer.disconnected());

  channel.open();
  writer.flush();
  EXPECT_EQ(channel.lines(),
            (std::vector<std::string>{"sentinel", "r1", "r2"}));
}

TEST(EventWriter, MustDeliverOverflowDisconnectsWithError) {
  GatedChannel channel;
  int disconnects = 0;
  {
    SessionEventWriter writer(
        channel, 3, [&] { ++disconnects; }, "overflow-error");
    park_writer(writer);

    ASSERT_TRUE(writer.post("r1", kMust));
    ASSERT_TRUE(writer.post("r2", kMust));
    // A third must-deliver line has nowhere to go: policy disconnect.
    EXPECT_FALSE(writer.post("r3", kMust));
    EXPECT_TRUE(writer.disconnected());
    EXPECT_EQ(disconnects, 1);
    EXPECT_TRUE(writer.stats().disconnected);

    // Everything after the disconnect is rejected, whatever its class.
    EXPECT_FALSE(writer.post("r4", kMust));
    EXPECT_FALSE(writer.post("p1", kDroppable));
    EXPECT_EQ(disconnects, 1) << "the hook must fire exactly once";

    channel.open();
    writer.flush();
  }
  // The queued-but-undelivered lines are gone; the client's last line is
  // the protocol error explaining why.
  EXPECT_EQ(channel.lines(),
            (std::vector<std::string>{"sentinel", "overflow-error"}));
}

TEST(EventWriter, BlockedSendCountsTowardBound) {
  // No clock: the channel itself reports when the writer thread is stuck
  // sending. With that line on the wire and bound N, N-1 more lines fit
  // and the N-th must-deliver post overflows, so a peer that stops
  // reading is cut off at N held lines, not N+1.
  for (std::size_t bound = 1; bound <= 4; ++bound) {
    SCOPED_TRACE("bound=" + std::to_string(bound));
    GatedChannel channel;
    int disconnects = 0;
    {
      SessionEventWriter writer(
          channel, bound, [&] { ++disconnects; }, "overflow-error");
      ASSERT_TRUE(writer.post("on-the-wire", kMust));
      channel.wait_until_blocked();
      for (std::size_t i = 1; i < bound; ++i)
        ASSERT_TRUE(writer.post("r" + std::to_string(i), kMust));
      EXPECT_FALSE(writer.disconnected());
      EXPECT_FALSE(writer.post("overflow", kMust));
      EXPECT_TRUE(writer.disconnected());
      EXPECT_EQ(disconnects, 1);
      channel.open();
      writer.flush();
    }
    EXPECT_EQ(channel.lines(),
              (std::vector<std::string>{"on-the-wire", "overflow-error"}));
  }
}

TEST(EventWriter, UnboundedNeverDropsOrDisconnects) {
  GatedChannel channel;
  std::vector<std::string> want{"sentinel"};
  {
    SessionEventWriter writer(channel, 0, nullptr, "overflow");
    park_writer(writer);
    for (int i = 0; i < 200; ++i) {
      const std::string line =
          (i % 2 == 0 ? "p" : "r") + std::to_string(i);
      ASSERT_TRUE(
          writer.post(line, i % 2 == 0 ? kDroppable : kMust));
      want.push_back(line);
    }
    const auto stats = writer.stats();
    EXPECT_EQ(stats.dropped_progress, 0u);
    EXPECT_FALSE(stats.disconnected);
    channel.open();
    writer.flush();
  }
  EXPECT_EQ(channel.lines(), want);
}

TEST(EventWriter, QueueStatsMatchInjectedLoadExactly) {
  GatedChannel channel;
  SessionEventWriter writer(channel, 4, nullptr, "overflow");
  park_writer(writer);

  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(writer.post("r" + std::to_string(i), kMust));
  // Queue full of must-deliver lines: each of these ticks sheds itself.
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(writer.post("p" + std::to_string(i), kDroppable));

  const auto stats = writer.stats();
  EXPECT_EQ(stats.depth, 3u);
  EXPECT_EQ(stats.depth_high_water, 3u);
  EXPECT_EQ(stats.enqueued, 4u);  // sentinel + r0..r2; shed ticks excluded
  EXPECT_EQ(stats.dropped_progress, 5u);
  EXPECT_FALSE(stats.disconnected);

  channel.open();
  writer.flush();
  const auto drained = writer.stats();
  EXPECT_EQ(drained.depth, 0u);
  EXPECT_EQ(drained.depth_high_water, 3u);
  EXPECT_EQ(channel.lines().size(), 4u);
}

TEST(EventWriter, PeerGoneRejectsPostsAndUnblocksFlush) {
  // A channel that refuses every write — the peer hung up.
  class DeadChannel final : public LineChannel {
   public:
    bool read_line(std::string&) override { return false; }
    bool write_line(std::string_view) override { return false; }
  } channel;

  SessionEventWriter writer(channel, 0, nullptr, "overflow");
  (void)writer.post("r1", kMust);
  writer.flush();  // must return: the peer is gone, nothing will drain
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!writer.peer_gone()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(writer.post("r2", kMust));
  EXPECT_FALSE(writer.disconnected()) << "hang-up is not a policy disconnect";
}

TEST(EventWriter, StreamChannelRoundTripKeepsOrder) {
  // The writer over the same StreamChannel the pipe-mode server uses:
  // everything posted before flush() is on the stream, in order.
  std::istringstream in;
  std::ostringstream out;
  support::StreamChannel channel(in, out);
  {
    SessionEventWriter writer(channel, 1024, nullptr, "overflow");
    for (int i = 0; i < 50; ++i)
      ASSERT_TRUE(writer.post("line" + std::to_string(i), kMust));
    writer.flush();
    EXPECT_EQ(writer.stats().dropped_progress, 0u);
  }
  std::istringstream lines(out.str());
  std::string line;
  int i = 0;
  while (std::getline(lines, line))
    EXPECT_EQ(line, "line" + std::to_string(i++));
  EXPECT_EQ(i, 50);
}

}  // namespace
}  // namespace iddq::core
