// SessionEventWriter — the non-blocking event path of a protocol session
// (docs/server.md, "Backpressure").
//
// One writer per connection. Emitting threads (the session's read loop and
// JobService workers streaming events) call post(), which enqueues the
// serialized line and returns immediately; a dedicated writer thread owns
// every channel write. A client that stops reading therefore stalls only
// its own writer thread — never a worker carrying another session's job.
//
// Overflow policy, per EventDeliveryClass (core/job_event.hpp), applied
// when the writer holds `bound` lines — queued ones plus the one it is
// sending right now (bound 0 = unbounded, never applies):
//  * droppable lines (progress ticks): the oldest queued droppable line is
//    discarded to make room; if none is queued, the incoming tick itself
//    is dropped. Either way post() succeeds and dropped_progress counts it.
//  * must_deliver lines (row / terminal / protocol responses): the queue
//    is beyond saving — delivering this line late but dropping others
//    would corrupt the stream. The queue is cleared, a final protocol
//    `error` line is queued for a best-effort goodbye, the disconnect hook
//    runs (the session aborts its read loop and cancels its jobs), and
//    post() returns false.
//
// Stats are exposed for the `stats` op's queue_stats object. flush()
// blocks until everything queued so far is on the wire (or the session is
// disconnected/the peer vanished) — the session calls it before returning
// from run() so tests can read the channel afterwards. The destructor
// stops the thread, using LineChannel::shutdown_write() to unblock a
// writer stuck sending to a gone-but-undetected peer.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "core/job_event.hpp"
#include "support/transport.hpp"

namespace iddq::core {

class SessionEventWriter {
 public:
  /// Point-in-time counters; returned by value so readers need no lock.
  struct Stats {
    std::size_t depth = 0;             // lines queued right now
    std::size_t depth_high_water = 0;  // max depth ever observed
    std::uint64_t enqueued = 0;        // lines accepted into the queue
    std::uint64_t dropped_progress = 0;
    bool disconnected = false;  // overflow policy tore the session down
  };

  /// `channel` must outlive the writer. `bound` caps queued plus
  /// in-flight lines (0 = unbounded). `on_disconnect` runs (once, without
  /// the queue lock, on the thread whose post() overflowed) when a
  /// must_deliver line cannot be queued; `overflow_error_line` is the
  /// protocol `error` JSON queued as the best-effort last line of a
  /// disconnected session.
  SessionEventWriter(support::LineChannel& channel, std::size_t bound,
                     std::function<void()> on_disconnect,
                     std::string overflow_error_line);
  ~SessionEventWriter();

  SessionEventWriter(const SessionEventWriter&) = delete;
  SessionEventWriter& operator=(const SessionEventWriter&) = delete;

  /// Enqueues one serialized line; never blocks on the channel. Returns
  /// false when the line was not accepted: the session is (or just
  /// became) disconnected, or the peer is gone. Droppable lines also
  /// return true when the overflow policy consumed them.
  bool post(std::string line, EventDeliveryClass cls);

  /// True once the overflow policy disconnected the session; the read
  /// loop polls this to stop consuming requests.
  [[nodiscard]] bool disconnected() const;

  /// True once a channel write failed (client hung up). Distinct from
  /// disconnected(): the peer left on its own, no policy fired.
  [[nodiscard]] bool peer_gone() const;

  /// Waits until every line queued so far is written, the session is
  /// disconnected, or the peer is gone. Never blocks indefinitely on a
  /// stalled client after the overflow policy fired.
  void flush();

  [[nodiscard]] Stats stats() const;

 private:
  struct Item {
    std::string text;
    EventDeliveryClass cls;
  };

  void writer_loop();

  support::LineChannel* channel_;
  std::size_t bound_;
  std::function<void()> on_disconnect_;
  std::string overflow_error_line_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;        // wakes the writer thread
  std::condition_variable flush_cv_;  // wakes flush() waiters
  std::deque<Item> queue_;
  bool stopping_ = false;
  bool disconnected_ = false;  // overflow policy fired
  bool peer_gone_ = false;     // a channel write returned false
  bool writing_ = false;       // writer thread is mid-write_line
  Stats stats_;

  std::thread thread_;  // last member: starts after everything above
};

}  // namespace iddq::core
