// ClusterClient — fans sweeps over N iddqsyn_server backends
// (docs/cluster.md).
//
// One client owns one persistent line-JSON connection per backend plus a
// reader thread demultiplexing its event stream. A sweep is split into
// width-1 backend submits (one per circuit): each shard's base seed is
// computed up front with the `iddqsyn --jobs` derivation, shard i at
// mix_seed(seed, i), and shipped explicitly in the submit's "seeds" array
// — seeds are DATA attached to the shard, so which backend runs it (or
// re-runs it after a failure) cannot change its rows. Placement consistent-hashes the shard's
// run-key fingerprint (ShardRouter) so repeat traffic lands on backends
// whose ResultCaches are already warm.
//
// Failover: when a backend dies (connection drops, connect refused, or a
// submit is rejected with an id-tagged protocol error), its in-flight
// shards are re-dispatched onto live ring successors with bounded
// exponential backoff; RowMerger suppresses the retried lifecycle echoes
// and dedupes re-streamed rows, keeping the merged client stream
// byte-identical to a single direct server. A shard whose attempts are
// exhausted gets a synthesized `failed` terminal — the sweep always
// completes.
//
// ClusterClient is the cluster front-end's support::SweepBackend: the one
// protocol session (core/job_protocol.hpp) relays sweeps through it, and
// stats_line()/ping_line() fan the corresponding op to every backend and
// aggregate the replies (docs/cluster.md, "Operating it").
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/row_merger.hpp"
#include "cluster/shard_router.hpp"
#include "support/submit_request.hpp"
#include "support/transport.hpp"

namespace iddq::cluster {

struct ClusterOptions {
  /// Virtual nodes per backend on the hash ring.
  std::size_t ring_replicas = 64;
  /// Dispatch attempts per shard (first try included) before the cluster
  /// synthesizes a `failed` terminal.
  std::size_t max_attempts = 3;
  /// Base retry backoff. Attempt k sleeps a deterministic decorrelated-
  /// jitter value in [backoff_ms, min(3 * previous sleep, backoff_ms *
  /// 16)] — the jitter source is Rng::mix_seed(jitter_seed, shard,
  /// attempt), not wall clock, so retry schedules reproduce exactly while
  /// still de-synchronizing shards that fail together.
  std::size_t backoff_ms = 200;
  /// Seeds the retry jitter (fixed default: identical runs back off
  /// identically).
  std::uint64_t jitter_seed = 0x1DD0BACC;
  /// How long stats_line()/ping_line() wait for backend replies.
  std::size_t stats_timeout_ms = 2000;
  /// Health-check cadence (--heartbeat-ms): every heartbeat_ms each
  /// backend gets a `ping` probe (id "hb"); an unanswered or unwritable
  /// probe counts one failure toward the circuit breaker. 0 = off.
  std::size_t heartbeat_ms = 0;
  /// Consecutive probe failures that open a backend's breaker (the
  /// backend is evicted from the active ring; docs/robustness.md).
  std::size_t breaker_threshold = 3;
  /// Cooldown before an open breaker half-opens: the next probe after
  /// breaker_cooldown_ms re-admits the backend on success, re-arms the
  /// cooldown on failure.
  std::size_t breaker_cooldown_ms = 1000;
};

/// Handle of one in-flight cluster sweep; created by submit_sweep.
class ClusterSweep final : public support::SweepHandle {
 private:
  friend class ClusterClient;
  struct Shard {
    std::uint64_t seed = 0;
    std::vector<std::string> placement;  // ring failover order
    std::size_t next_candidate = 0;      // rotates through placement
    std::size_t attempts = 0;
    std::size_t prev_backoff_ms = 0;  // decorrelated-jitter state
    std::string last_error;  // latest backend rejection, for fail_shard
  };

  ClusterSweep(const support::SubmitRequest& request,
               support::SweepEmit emit);

  std::vector<std::string> methods_;
  std::size_t budget_ = 0;
  bool use_cache_ = true;
  int priority_ = 0;
  std::size_t deadline_ms_ = 0;
  RowMerger merger_;
  std::vector<Shard> shards_;
  support::SweepEmit emit_;
  std::atomic<bool> cancel_requested_{false};
};

class ClusterClient final : public support::SweepBackend {
 public:
  /// `endpoints` name the backends (--submit convention: host:port or unix
  /// socket path; duplicates ignored); `library_fp` feeds the routing
  /// fingerprint. Connections are opened lazily on first dispatch.
  ClusterClient(const std::vector<std::string>& endpoints,
                std::uint64_t library_fp, ClusterOptions options = {});
  ~ClusterClient() override;

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Emits `accepted`, then routes and dispatches every shard (blocking
  /// until each is written to a backend, has exhausted its attempts, or
  /// the sweep is cancelled) and returns the handle; events stream to
  /// `emit` as backends produce them, merged, ending with sweep_done.
  /// A non-zero request.deadline_ms is forwarded verbatim to every shard's
  /// backend submit; 0 omits the field, so the backend's default applies.
  std::shared_ptr<support::SweepHandle> submit_sweep(
      const support::SubmitRequest& request,
      support::SweepEmit emit) override;

  /// Cooperatively cancels a sweep: forwards cancel to the backends
  /// holding its shards; shards between dispatches turn cancelled locally.
  void cancel(support::SweepHandle& sweep) override;

  /// `hello` with the number of backends on the ring.
  [[nodiscard]] std::string hello_line() override;

  /// Aggregate `stats` event across all reachable backends: summed
  /// service/cache counters plus a per_backend array (docs/cluster.md).
  [[nodiscard]] std::string stats_line() override;

  /// Aggregate `pong` event: pings every backend, reports backends/alive
  /// and the summed worker count of the ones that answered; echoes a
  /// non-empty `id`.
  [[nodiscard]] std::string ping_line(std::string_view id) override;

  [[nodiscard]] std::size_t backend_count() const noexcept {
    return backends_.size();
  }

 private:
  struct Backend {
    explicit Backend(std::string ep) : endpoint(std::move(ep)) {}
    const std::string endpoint;
    std::mutex connect_mutex;  // serializes (re)connect attempts
    std::mutex write_mutex;    // serializes channel writes
    // Current connection, shared with its reader thread; null while down.
    // Guarded by ClusterClient::state_mutex_.
    std::shared_ptr<support::FdChannel> channel;
    std::atomic<bool> alive{false};
    // stats/ping rendezvous (guarded by state_mutex_, signalled through
    // reply_cv_): the reader thread deposits the next matching reply.
    bool reply_pending = false;
    std::string reply;
    // Circuit breaker (docs/robustness.md). All guarded by state_mutex_
    // except hb_pongs, which the reader thread bumps lock-free when a
    // pong tagged "hb" arrives.
    std::size_t consecutive_failures = 0;
    bool breaker_open = false;
    std::chrono::steady_clock::time_point breaker_open_until{};
    std::uint64_t hb_pings = 0;  // heartbeat thread only
    std::atomic<std::uint64_t> hb_pongs{0};
  };

  /// A dispatched shard: backend submit id -> where its events belong.
  struct Route {
    std::shared_ptr<ClusterSweep> sweep;
    std::size_t shard = 0;
    std::size_t backend = 0;
  };

  bool ensure_connected(std::size_t backend);
  void reader_loop(std::size_t backend,
                   std::shared_ptr<support::FdChannel> channel);
  void handle_backend_down(std::size_t backend,
                           const std::shared_ptr<support::FdChannel>& channel);
  void dispatch_shard(const std::shared_ptr<ClusterSweep>& sweep,
                      std::size_t shard);
  /// Emits sweep_done (exactly once) when the last shard turned terminal.
  static void finish_if_done(ClusterSweep& sweep);
  bool write_to_backend(std::size_t backend, const std::string& line);
  /// Heartbeat prober (started when options_.heartbeat_ms > 0): probes
  /// every backend each cycle, drives the per-backend circuit breaker,
  /// and evicts/re-admits backends on the router's active ring.
  void heartbeat_loop();
  void probe_backend(std::size_t backend);
  /// Broadcasts `op` to every reachable backend and collects one reply
  /// line per backend whose event matches `reply_kind` (empty string on
  /// timeout/unreachable), within stats_timeout_ms.
  std::vector<std::string> broadcast(const std::string& op_line,
                                     const std::string& reply_kind);

  ClusterOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::unordered_map<std::string, std::size_t> backend_index_;

  std::mutex state_mutex_;  // routes_, channels, rendezvous, counters
  std::condition_variable reply_cv_;
  std::unordered_map<std::string, Route> routes_;
  std::uint64_t route_counter_ = 0;
  std::atomic<bool> stopping_{false};

  std::mutex readers_mutex_;
  std::vector<std::thread> readers_;  // every reader generation ever spawned

  // Heartbeat thread (empty when heartbeat_ms == 0); hb_cv_ wakes it for
  // shutdown so the destructor never waits out a full cycle.
  std::thread heartbeat_;
  std::condition_variable hb_cv_;
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> breaker_reopens_{0};
};

}  // namespace iddq::cluster
