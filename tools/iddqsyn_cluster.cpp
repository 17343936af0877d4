// iddqsyn_cluster — cluster front-end for the BIC-sensor job protocol
// (docs/cluster.md).
//
// Speaks the same line-delimited JSON session protocol as iddqsyn_server
// (docs/server.md) on its client side, but runs no flow itself: every
// submitted sweep is split into per-circuit shards, consistent-hashed over
// the configured `--backend` servers (cache affinity: the routing key is
// the run-key fingerprint, so repeat traffic lands on warm ResultCaches),
// and the per-backend event streams are merged back into one session
// stream that is byte-identical to what a single direct server — or
// `iddqsyn --jobs N` — would have produced. Backends that die mid-sweep
// are failed over: their shards retry on ring successors with bounded
// backoff, and rows stay identical because each shard's base seed is
// shipped with it as data.
//
// Usage:
//   iddqsyn_cluster --backend ENDPOINT [--backend ENDPOINT ...] [options]
//
// Options: run `iddqsyn_cluster --help` for the list.
//
// The front-end holds no result state: `stats` and `ping` fan out to every
// backend and return an aggregate (summed counters + per_backend array).
// A client "shutdown" op stops the front-end only — backends keep running.
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "core/event_writer.hpp"
#include "core/job_event.hpp"
#include "library/cell_library.hpp"
#include "library/fingerprint.hpp"
#include "library/lib_io.hpp"
#include "shared_flags.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/submit_request.hpp"
#include "support/transport.hpp"

namespace {

using namespace iddq;
using json::JsonWriter;

struct ClusterToolOptions {
  std::vector<std::string> backends;
  tools::ServeFlags serve;
  cluster::ClusterOptions cluster;
  std::optional<std::string> lib_path;
};

support::FlagTable cluster_flags(ClusterToolOptions& o) {
  support::FlagTable flags(
      "iddqsyn_cluster", "--backend ENDPOINT [--backend ...] [options]",
      "protocol: docs/cluster.md and docs/server.md (line-delimited JSON)");
  flags.repeated("--backend", "E",
                 "backend endpoint (host:port or unix socket path); "
                 "repeatable",
                 o.backends);
  o.serve.declare(flags);
  flags
      .size("--replicas", "N",
            "virtual nodes per backend on the hash ring (default 64)",
            o.cluster.ring_replicas, 1)
      .size("--retry", "N", "dispatch attempts per shard (default 3)",
            o.cluster.max_attempts, 1)
      .size("--backoff-ms", "MS",
            "base retry backoff in ms (default 200; actual sleeps use "
            "deterministic decorrelated jitter)",
            o.cluster.backoff_ms)
      .size("--heartbeat-ms", "MS",
            "probe every backend each MS ms and run the per-backend circuit "
            "breaker (default 0 = off; docs/robustness.md)",
            o.cluster.heartbeat_ms)
      .size("--breaker-threshold", "N",
            "consecutive probe failures that open a backend's breaker "
            "(default 3)",
            o.cluster.breaker_threshold, 1)
      .size("--breaker-cooldown-ms", "MS",
            "open-breaker cooldown before a half-open re-probe (default "
            "1000)",
            o.cluster.breaker_cooldown_ms, 1)
      .text("--lib", "FILE",
            "cell library for the routing fingerprint (default: built-in)",
            o.lib_path);
  return flags;
}

/// One client connection: reads ops, relays sweeps through the shared
/// ClusterClient, and streams merged events back through a non-blocking
/// SessionEventWriter — the same backpressure contract as a direct server
/// session (docs/server.md, "Backpressure").
class ClusterSession {
 public:
  ClusterSession(cluster::ClusterClient& client,
                 support::LineChannel& channel, std::size_t session_queue)
      : client_(&client), channel_(&channel), session_queue_(session_queue) {}

  /// Serves until EOF or a shutdown op; drains in-flight sweeps before
  /// returning. Returns true on a client-requested shutdown.
  bool run() {
    bool shutdown_requested = false;
    core::SessionEventWriter writer(
        *channel_, session_queue_, [this] { on_overflow_disconnect(); },
        JsonWriter()
            .field("event", "error")
            .field("message",
                   "event queue overflow: client not reading; session "
                   "disconnected")
            .str());
    writer_ = &writer;

    writer.post(JsonWriter()
                    .field("event", "hello")
                    .field("protocol", std::uint64_t{1})
                    .field("backends", client_->backend_count())
                    .str(),
                core::EventDeliveryClass::must_deliver);

    std::string line;
    while (!writer.disconnected() && channel_->read_line(line)) {
      if (str::trim(line).empty()) continue;
      if (handle_line(line)) {
        shutdown_requested = true;
        break;
      }
    }
    drain();
    if (shutdown_requested && !writer.disconnected())
      send(JsonWriter().field("event", "bye").str());
    writer.flush();
    writer_ = nullptr;
    return shutdown_requested;
  }

 private:
  bool handle_line(const std::string& line) {
    const auto request = json::JsonValue::parse(line);
    if (!request || !request->is_object()) {
      send_error("malformed request: not a JSON object");
      return false;
    }
    const std::string op = request->get_string("op");
    if (op == "shutdown") return true;
    if (op == "stats") {
      // Aggregated across backends; blocks this session's read loop (not
      // the event stream) for at most the stats timeout.
      send(client_->stats_line());
      return false;
    }
    if (op == "ping") {
      send(client_->ping_line());
      return false;
    }
    if (op == "cancel") {
      const std::string id = request->get_string("id");
      std::shared_ptr<cluster::ClusterSweep> sweep;
      {
        const std::scoped_lock lock(mutex_);
        const auto it = sweeps_.find(id);
        if (it != sweeps_.end()) sweep = it->second;
      }
      if (sweep == nullptr || sweep->finished()) {
        send_error("cancel: unknown sweep id '" + id + "'");
        return false;
      }
      client_->cancel(sweep);
      return false;
    }
    if (op == "submit") {
      handle_submit(*request);
      return false;
    }
    send_error("unknown op '" + op + "'");
    return false;
  }

  void handle_submit(const json::JsonValue& request) {
    std::string id = request.get_string("id");
    if (id.empty()) id = "job-" + std::to_string(++auto_id_);
    support::SubmitRequest sweep_request;
    try {
      // No default deadline: 0 omits the field from the backend submits.
      sweep_request = support::parse_submit_request(request, id, 0);
    } catch (const Error& e) {
      send_error(e.what(), id);
      return;
    }
    {
      const std::scoped_lock lock(mutex_);
      const auto it = sweeps_.find(sweep_request.id);
      if (it != sweeps_.end() && !it->second->finished()) {
        send_error("submit: sweep id '" + sweep_request.id +
                       "' is still active",
                   sweep_request.id);
        return;
      }
    }
    // The same accepted bytes a direct server answers with; emitted
    // before dispatch so the client sees it ahead of any backend event.
    send(JsonWriter()
             .field("event", "accepted")
             .field("id", sweep_request.id)
             .field("jobs", sweep_request.circuits.size())
             .str());
    auto sweep = client_->submit_sweep(
        sweep_request, [this](const std::string& event_line, bool droppable) {
          send(event_line, droppable
                               ? core::EventDeliveryClass::droppable
                               : core::EventDeliveryClass::must_deliver);
        });
    const std::scoped_lock lock(mutex_);
    sweeps_[sweep->id()] = std::move(sweep);
  }

  void send(const std::string& json_line,
            core::EventDeliveryClass cls =
                core::EventDeliveryClass::must_deliver) {
    if (writer_ != nullptr) (void)writer_->post(json_line, cls);
  }

  void send_error(const std::string& message, const std::string& id = "") {
    JsonWriter w;
    w.field("event", "error");
    if (!id.empty()) w.field("id", id);
    w.field("message", message);
    send(std::move(w).str());
  }

  void on_overflow_disconnect() {
    channel_->shutdown_read();
    // A disconnected client never sees the remaining results; cancelling
    // the sweeps propagates to the backends and frees their workers.
    std::vector<std::shared_ptr<cluster::ClusterSweep>> active;
    {
      const std::scoped_lock lock(mutex_);
      for (const auto& [id, sweep] : sweeps_) active.push_back(sweep);
    }
    for (const auto& sweep : active) client_->cancel(sweep);
  }

  /// EOF and shutdown both drain, mirroring the direct server: every
  /// sweep reaches sweep_done (failover and attempt bounds guarantee
  /// termination even with dead backends) before the session ends.
  void drain() {
    std::vector<std::shared_ptr<cluster::ClusterSweep>> active;
    {
      const std::scoped_lock lock(mutex_);
      for (const auto& [id, sweep] : sweeps_) active.push_back(sweep);
    }
    for (const auto& sweep : active) sweep->wait();
  }

  cluster::ClusterClient* client_;
  support::LineChannel* channel_;
  std::size_t session_queue_;
  std::mutex mutex_;  // guards sweeps_
  std::unordered_map<std::string, std::shared_ptr<cluster::ClusterSweep>>
      sweeps_;
  std::uint64_t auto_id_ = 0;
  core::SessionEventWriter* writer_ = nullptr;
};

int serve_listener(cluster::ClusterClient& client,
                   support::SocketListener& listener,
                   std::size_t session_queue) {
  // Tests (and `--listen host:0` deployments) parse the endpoint — which
  // carries the kernel-assigned port — from this line.
  std::cerr << "iddqsyn_cluster: listening on " << listener.endpoint()
            << "\n";

  std::atomic<bool> shutdown_requested{false};
  std::mutex threads_mutex;
  std::vector<std::thread> sessions;

  while (auto channel = listener.accept()) {
    std::shared_ptr<support::FdChannel> conn = std::move(channel);
    std::thread session(
        [&client, &listener, &shutdown_requested, conn, session_queue] {
          ClusterSession protocol(client, *conn, session_queue);
          if (protocol.run()) {
            shutdown_requested.store(true);
            listener.close();
          }
        });
    const std::scoped_lock lock(threads_mutex);
    sessions.push_back(std::move(session));
  }
  {
    const std::scoped_lock lock(threads_mutex);
    for (auto& t : sessions)
      if (t.joinable()) t.join();
  }
  std::cerr << "iddqsyn_cluster: "
            << (shutdown_requested.load() ? "shutdown requested by client"
                                          : "listener closed")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Settle the IDDQ_FAULT_PLAN env check up front: a malformed plan must
  // abort at startup, not at the first transport or cache hook.
  (void)support::FaultPlan::active();
  ClusterToolOptions opts;
  auto flags = cluster_flags(opts);
  if (const auto code = flags.parse(argc, argv)) return *code;
  if (opts.backends.empty())
    return flags.usage_error("at least one --backend is required");
  try {
    const auto library = opts.lib_path
                             ? lib::read_library_file(*opts.lib_path)
                             : lib::default_library();
    cluster::ClusterClient client(opts.backends,
                                  lib::library_fingerprint(library),
                                  opts.cluster);
    std::cerr << "iddqsyn_cluster: " << client.backend_count()
              << " backend(s) on the ring\n";

    if (const auto listener = opts.serve.open_listener())
      return serve_listener(client, *listener, opts.serve.session_queue);

    support::StreamChannel channel(std::cin, std::cout);
    ClusterSession session(client, channel, opts.serve.session_queue);
    (void)session.run();
    return 0;
  } catch (const Error& e) {
    std::cerr << "iddqsyn_cluster: " << e.what() << "\n";
    return 2;
  }
}
