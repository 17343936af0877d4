#include "core/event_writer.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace iddq::core {

SessionEventWriter::SessionEventWriter(support::LineChannel& channel,
                                       std::size_t bound,
                                       std::function<void()> on_disconnect,
                                       std::string overflow_error_line)
    : channel_(&channel),
      bound_(bound),
      on_disconnect_(std::move(on_disconnect)),
      overflow_error_line_(std::move(overflow_error_line)),
      thread_([this] { writer_loop(); }) {}

SessionEventWriter::~SessionEventWriter() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    cv_.notify_all();
    // Normally the session flushed already and this returns immediately;
    // the bounded grace covers a writer stuck sending to a stalled peer.
    flush_cv_.wait_for(lock, std::chrono::seconds(1), [this] {
      return queue_.empty() && !writing_;
    });
    queue_.clear();
    stats_.depth = 0;
  }
  cv_.notify_all();
  // Idempotent and harmless on a drained channel (the session is over);
  // unblocks a send the grace period could not wait out.
  channel_->shutdown_write();
  thread_.join();
}

bool SessionEventWriter::post(std::string line, EventDeliveryClass cls) {
  bool fire_disconnect = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_ || disconnected_ || peer_gone_) return false;
    // The line the writer thread is sending counts too: a peer that stops
    // reading blocks that send, and its backlog must overflow at `bound`
    // lines, not at `bound` plus the one stuck on the wire.
    const std::size_t held = queue_.size() + (writing_ ? 1 : 0);
    if (bound_ > 0 && held >= bound_) {
      // Full. Reclaim the oldest droppable line; survivors keep their
      // order (we only ever remove, never reorder).
      const auto droppable = std::find_if(
          queue_.begin(), queue_.end(), [](const Item& item) {
            return item.cls == EventDeliveryClass::droppable;
          });
      if (droppable != queue_.end()) {
        queue_.erase(droppable);
        ++stats_.dropped_progress;
      } else if (cls == EventDeliveryClass::droppable) {
        // Queue is wall-to-wall must_deliver lines; shed the tick itself.
        ++stats_.dropped_progress;
        return true;
      } else {
        // A must_deliver line has nowhere to go: the client is too far
        // behind to ever see a correct stream. Tear the session down,
        // keeping only a best-effort protocol error as the last line.
        disconnected_ = true;
        stats_.disconnected = true;
        queue_.clear();
        queue_.push_back(
            Item{overflow_error_line_, EventDeliveryClass::must_deliver});
        stats_.depth = queue_.size();
        fire_disconnect = true;
      }
    }
    if (!fire_disconnect) {
      queue_.push_back(Item{std::move(line), cls});
      ++stats_.enqueued;
      stats_.depth = queue_.size();
      stats_.depth_high_water =
          std::max(stats_.depth_high_water, stats_.depth);
    }
  }
  cv_.notify_one();
  if (fire_disconnect) {
    // Outside the lock: the hook cancels jobs and shuts the read side,
    // either of which may re-enter post() (which now rejects).
    if (on_disconnect_) on_disconnect_();
    return false;
  }
  return true;
}

bool SessionEventWriter::disconnected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disconnected_;
}

bool SessionEventWriter::peer_gone() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peer_gone_;
}

void SessionEventWriter::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto drained = [this] {
    return peer_gone_ || (queue_.empty() && !writing_);
  };
  if (disconnected_) {
    // Only the best-effort error line remains; give it a bounded chance
    // to leave, but never wait out a peer that stopped draining.
    flush_cv_.wait_for(lock, std::chrono::seconds(2), drained);
  } else {
    flush_cv_.wait(lock, drained);
  }
}

SessionEventWriter::Stats SessionEventWriter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SessionEventWriter::writer_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) break;  // stopping_ with nothing left to drain
    Item item = std::move(queue_.front());
    queue_.pop_front();
    stats_.depth = queue_.size();
    writing_ = true;
    lock.unlock();
    const bool ok = channel_->write_line(item.text);
    lock.lock();
    writing_ = false;
    if (!ok) {
      peer_gone_ = true;
      queue_.clear();
      stats_.depth = 0;
    }
    flush_cv_.notify_all();
  }
  flush_cv_.notify_all();
}

}  // namespace iddq::core
