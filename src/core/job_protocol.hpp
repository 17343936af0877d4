// Line-delimited JSON job protocol — the wire format of iddqsyn_server
// and iddqsyn_cluster (docs/server.md has the full spec and a worked
// session).
//
// One JobProtocolSession serves one client connection: it reads request
// objects line by line from a support::LineChannel and streams every
// sweep's events back as they happen. What runs the sweeps is a
// support::SweepBackend: on the job server, a per-session backend that
// shards submits across the shared JobService (per-shard seeds follow the
// `iddqsyn --jobs` derivation, shard i at mix_seed(seed, i), so server
// results are byte-identical to `iddqsyn --jobs N` at the same base seed);
// on the cluster front-end, the shared cluster::ClusterClient. Worker and
// reader threads emit concurrently; the session's event writer serializes
// channel writes.
//
// Requests (one JSON object per line):
//   {"op":"submit","id":"t1","circuits":["c17","c1908"],
//    "methods":["evolution","standard"],"seed":42,"budget":0,"cache":true,
//    "priority":0}
// "priority" (optional, may be negative) only reorders the queue —
// higher pops sooner, FIFO within a level, aging prevents starvation;
// results are independent of it. An optional "seeds" array (one entry per
// circuit) replaces the mix_seed derivation with explicit per-shard base
// seeds — the cluster front-end ships seeds as data so shard placement
// cannot change rows (docs/cluster.md).
//   {"op":"cancel","id":"t1"}
//   {"op":"stats"}
//   {"op":"ping","id":"p"}  -> {"event":"pong","protocol":1,...,"id":"p"}
//   {"op":"shutdown"}
//
// Responses/events: hello, accepted, queued, running, progress, row, done,
// failed, cancelled, sweep_done, stats, pong, error, bye. Every job event
// carries the client-chosen sweep "id" plus the shard's "circuit".
//
// End of session: a shutdown op or channel EOF. Both drain — every
// submitted sweep reaches its sweep_done and its events are flushed
// before run() returns (shutdown additionally answers "bye").
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event_writer.hpp"
#include "core/job_service.hpp"
#include "support/submit_request.hpp"
#include "support/transport.hpp"

namespace iddq::core {

/// Server-wide traffic counters, shared by every session of one server
/// process (iddqsyn_server wires a single instance into all sessions).
struct SessionTrafficStats {
  /// Sessions torn down by the overflow policy (must-deliver event could
  /// not be queued — the client stopped reading).
  std::atomic<std::uint64_t> overflow_disconnects{0};
  /// Submits rejected by the per-session in-flight quota.
  std::atomic<std::uint64_t> quota_rejections{0};
  /// Sessions that completed while the server was draining (their
  /// in-flight jobs finished or were cancelled at the drain deadline).
  std::atomic<std::uint64_t> drained_sessions{0};
};

/// Session knobs; namespace-scope so it can be a default argument. The
/// admission, quota and deadline knobs apply to job server sessions.
struct JobProtocolOptions {
  /// Admission bound (iddqsyn_server --max-queue): a submit whose shard
  /// fan-out would push the service's queue depth past this is rejected
  /// whole with a protocol `error` event — nothing of it is queued. 0 =
  /// unbounded.
  std::size_t max_queue = 0;
  /// Outbound event-queue bound (iddqsyn_server --session-queue): the
  /// most lines the session's event writer buffers for a slow client
  /// before the overflow policy (docs/server.md, "Backpressure") fires.
  /// 0 = unbounded (events are never dropped and a stalled client can
  /// buffer without limit — the pre-queue semantics, kept as the default
  /// for embedders and unit tests).
  std::size_t session_queue = 0;
  /// Per-session in-flight job quota (iddqsyn_server
  /// --max-jobs-per-session): a submit whose fan-out would push this
  /// session's unfinished-job count past the bound is rejected whole
  /// with a protocol `error`. 0 = unlimited.
  std::size_t max_jobs_per_session = 0;
  /// Optional server-wide counters; sessions bump them when the overflow
  /// policy or the quota fires. May be nullptr (standalone sessions).
  SessionTrafficStats* traffic = nullptr;
  /// Server-wide drain flag (docs/robustness.md), owned by the
  /// ProtocolServer. When set — by any session's shutdown op or the
  /// server's SIGTERM hook — every session rejects new submits with a
  /// protocol `error`, finishes its in-flight sweeps bounded by
  /// `drain_timeout_ms`, and answers `bye`. May be nullptr (standalone
  /// sessions: only their own shutdown op drains them, unbounded).
  std::atomic<bool>* draining = nullptr;
  /// Budget for in-flight jobs once draining (iddqsyn_server
  /// --drain-timeout-ms): jobs still running at the deadline are
  /// cancelled (cooperative — they land within one progress tick).
  /// 0 = wait for them without bound.
  std::size_t drain_timeout_ms = 0;
  /// Default JobSpec::deadline_ms for submits that do not carry their own
  /// "deadline_ms" (iddqsyn_server --job-timeout-ms). 0 = none.
  std::size_t default_deadline_ms = 0;
};

class JobProtocolSession {
 public:
  using Options = JobProtocolOptions;

  /// A job server session over `service`, which several sessions may
  /// share. `service` and `channel` must outlive the session.
  JobProtocolSession(JobService& service, support::LineChannel& channel,
                     Options options = {});
  /// A session whose sweeps run on `backend` (the cluster front-end's
  /// ClusterClient). `backend` and `channel` must outlive the session.
  JobProtocolSession(support::SweepBackend& backend,
                     support::LineChannel& channel, Options options = {});
  ~JobProtocolSession();

  JobProtocolSession(const JobProtocolSession&) = delete;
  JobProtocolSession& operator=(const JobProtocolSession&) = delete;

  /// Serves the connection until EOF or a shutdown op; drains outstanding
  /// sweeps before returning. Returns true when the client asked the whole
  /// server to shut down (the caller decides what that means).
  bool run();

  /// Sweeps this session still holds for cancel and drain: its unfinished
  /// ones. A sweep is released as its sweep_done is posted; a finished
  /// sweep keeps only its id.
  [[nodiscard]] std::size_t tracked_sweeps();

 private:
  class ServiceBackend;

  /// A sweep id this session has used. `running` drops as the sweep's
  /// sweep_done is posted, so the id may be reused from then on; `handle`
  /// is held from submit_sweep's return until then.
  struct Tracked {
    std::shared_ptr<support::SweepHandle> handle;
    bool running = false;
  };

  /// Returns true when the line was a shutdown op.
  bool handle_line(const std::string& line);
  void handle_submit(const support::SubmitRequest& request);
  /// The SweepEmit every sweep of this session streams through.
  void on_sweep_line(const std::string& id, const std::string& line,
                     support::SweepLine kind);
  /// Routes through the session's event writer (non-blocking; overflow
  /// policy applies per `cls`).
  void send(const std::string& json,
            EventDeliveryClass cls = EventDeliveryClass::must_deliver);
  void send_error(const std::string& message, const std::string& id = "");
  std::vector<std::shared_ptr<support::SweepHandle>> running_sweeps();
  void cancel_all();
  /// Waits until every submitted sweep has posted its sweep_done; once
  /// the server is draining, cancels what is left after drain_timeout_ms.
  void drain();
  /// The writer's overflow hook: aborts the read loop and cancels every
  /// sweep this session still runs, so a disconnected session's work
  /// stops consuming workers.
  void on_overflow_disconnect();

  std::unique_ptr<ServiceBackend> owned_backend_;
  support::SweepBackend* backend_;
  support::LineChannel* channel_;
  Options options_;

  std::mutex mutex_;  // guards sweeps_ / unfinished_
  std::condition_variable finished_cv_;
  std::unordered_map<std::string, Tracked> sweeps_;
  /// Submitted sweeps whose sweep_done is not posted yet: what drain()
  /// waits for.
  std::size_t unfinished_ = 0;
  std::uint64_t auto_id_ = 0;  // for submits without an "id"
  /// The run()-scoped event writer; sweeps only run inside run().
  SessionEventWriter* writer_ = nullptr;
};

/// The accept loop of every tool that serves the protocol on a socket
/// (iddqsyn_server, iddqsyn_cluster): one thread per connection, each
/// running a JobProtocolSession. serve() returns once the listener closes
/// — a client's shutdown op, SIGTERM (after drain_on_sigterm()) or sever()
/// — and the server has drained: the draining flag is up, so sessions
/// reject new submits; every live session's read is shut, so it finishes
/// its sweeps (within Options::drain_timeout_ms) and says bye; and every
/// session thread is joined.
class ProtocolServer {
 public:
  /// Sessions run over `backend`, a JobService or a support::SweepBackend
  /// that outlives the server, with `options` — whose draining flag is
  /// replaced by the server's own.
  template <typename Backend>
  ProtocolServer(support::SocketListener& listener, Backend& backend,
                 JobProtocolOptions options)
      : listener_(&listener),
        run_session_([&backend](support::LineChannel& channel,
                                const JobProtocolOptions& session_options) {
          return JobProtocolSession(backend, channel, session_options).run();
        }),
        options_(options) {
    options_.draining = &draining_;
  }

  ProtocolServer(const ProtocolServer&) = delete;
  ProtocolServer& operator=(const ProtocolServer&) = delete;

  /// Accepts and serves until the listener closes, then drains. Returns
  /// true when a client's shutdown op ended it.
  bool serve();

  /// Makes SIGTERM close the listener, which drains the server. One
  /// server per process; SIGTERM's default action is back once serve()
  /// returns.
  void drain_on_sigterm();

  /// Closes the listener and cuts every live connection both ways: to its
  /// clients the server is gone.
  void sever();

 private:
  support::SocketListener* listener_;
  std::function<bool(support::LineChannel&, const JobProtocolOptions&)>
      run_session_;
  JobProtocolOptions options_;
  bool sigterm_hook_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex mutex_;  // guards live_
  /// Every connection still being served, so drain and sever can reach it.
  std::vector<std::weak_ptr<support::FdChannel>> live_;
};

}  // namespace iddq::core
