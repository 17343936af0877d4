// iddqsyn_server — long-running job server for the BIC-sensor flow.
//
// Speaks the line-delimited JSON job protocol (docs/server.md) and fans
// submitted (circuit, method-set) sweeps out over a JobService worker
// pool, streaming MethodResult rows back as they complete. Repeated jobs
// are served from the shared content-addressed ResultCache when
// --cache-dir is given, so a sweep server amortizes every run it has ever
// done.
//
// Usage:
//   iddqsyn_server [options]
//
// Options: run `iddqsyn_server --help` for the list.
//
// A client "shutdown" op stops the whole server (pipe mode: ends the
// session); EOF on a connection ends only that session. Determinism: a
// sweep submitted with seed S is byte-identical to `iddqsyn --jobs N
// --seed S` over the same circuits/methods — per-shard seeds derive from
// the shard index, never from scheduling.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/job_protocol.hpp"
#include "core/job_service.hpp"
#include "core/result_cache.hpp"
#include "shared_flags.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/fault_plan.hpp"
#include "support/flags.hpp"
#include "support/transport.hpp"

namespace {

using namespace iddq;

struct ServerOptions {
  tools::ServeFlags serve;
  tools::EngineFlags engine;
  std::size_t workers = 0;       // 0 = hardware concurrency
  std::size_t max_queue = 0;     // 0 = unbounded
  std::size_t max_jobs_per_session = 0;  // 0 = unlimited
  std::size_t job_timeout_ms = 0;        // 0 = no default deadline
  std::size_t drain_timeout_ms = 0;      // 0 = drain waits unbounded
  std::size_t cache_idle_evict_sec = 0;  // 0 = disabled
};

support::FlagTable server_flags(ServerOptions& o) {
  support::FlagTable flags(
      "iddqsyn_server", "[options]",
      "protocol: docs/server.md (line-delimited JSON; "
      "submit/cancel/stats/shutdown)");
  o.serve.declare(flags);
  flags
      .size("--workers", "N", "worker threads (default: hardware concurrency)",
            o.workers, 1)
      .size("--max-queue", "N",
            "reject submits past N queued jobs (default 0 = unbounded)",
            o.max_queue)
      .size("--max-jobs-per-session", "N",
            "per-session in-flight job quota (default 0 = unlimited)",
            o.max_jobs_per_session)
      .size("--job-timeout-ms", "N",
            "default per-job deadline: a job past N ms of wall clock fails "
            "with reason \"timeout\" (submit deadline_ms overrides; default "
            "0 = none)",
            o.job_timeout_ms)
      .size("--drain-timeout-ms", "N",
            "graceful-drain bound: on shutdown/SIGTERM finish in-flight jobs "
            "for up to N ms, then cancel the rest (default 0 = wait for them)",
            o.drain_timeout_ms)
      .size("--cache-idle-evict", "SEC",
            "evict in-memory cache entries idle for SEC seconds",
            o.cache_idle_evict_sec, 1);
  o.engine.declare(flags);
  return flags;
}

// SIGTERM → graceful drain (docs/robustness.md): the handler may only
// touch async-signal-safe state, so it flips an atomic and closes the
// listener fd (atomic exchange + shutdown/close), which unblocks the
// accept loop; everything else happens on normal threads.
std::atomic<support::SocketListener*> g_signal_listener{nullptr};

extern "C" void handle_sigterm(int /*signum*/) {
  if (auto* listener = g_signal_listener.exchange(nullptr))
    listener->close();
}

int serve_listener(core::JobService& service,
                   support::SocketListener& listener,
                   core::JobProtocolOptions protocol_options,
                   std::atomic<bool>& draining) {
  // Tests (and `--listen host:0` deployments) parse the endpoint — which
  // carries the kernel-assigned port — from this line.
  std::cerr << "iddqsyn_server: listening on " << listener.endpoint()
            << "\n";

  g_signal_listener.store(&listener);
  (void)std::signal(SIGTERM, handle_sigterm);

  std::atomic<bool> shutdown_requested{false};
  std::mutex threads_mutex;
  std::vector<std::thread> sessions;
  // Live session channels, so drain can stop their blocked read loops.
  std::mutex conns_mutex;
  std::vector<std::weak_ptr<support::FdChannel>> conns;

  while (auto channel = listener.accept()) {
    std::shared_ptr<support::FdChannel> conn = std::move(channel);
    {
      const std::scoped_lock lock(conns_mutex);
      std::erase_if(conns,
                    [](const auto& weak) { return weak.expired(); });
      conns.push_back(conn);
    }
    std::thread session([&service, &listener, &shutdown_requested, conn,
                         protocol_options] {
      core::JobProtocolSession protocol(service, *conn, protocol_options);
      if (protocol.run()) {
        // A client-requested shutdown stops the whole server: closing
        // the listener unblocks accept() in the main thread.
        shutdown_requested.store(true);
        listener.close();
      }
    });
    const std::scoped_lock lock(threads_mutex);
    sessions.push_back(std::move(session));
  }
  // Accept loop over — client shutdown op or SIGTERM. Enter drain mode
  // (new submits already rejected by any session that checks the flag)
  // and stop every session's blocked read so each finishes its in-flight
  // jobs bounded by --drain-timeout-ms, flushes, and says bye.
  g_signal_listener.store(nullptr);
  draining.store(true);
  {
    const std::scoped_lock lock(conns_mutex);
    for (const auto& weak : conns)
      if (const auto conn = weak.lock()) conn->shutdown_read();
  }
  {
    const std::scoped_lock lock(threads_mutex);
    for (auto& t : sessions)
      if (t.joinable()) t.join();
  }
  std::cerr << "iddqsyn_server: "
            << (shutdown_requested.load() ? "shutdown requested by client"
                                          : "drained (signal or listener "
                                            "closed)")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Settle the IDDQ_FAULT_PLAN env check up front: a malformed plan must
  // abort at startup, not at the first transport or cache hook.
  (void)support::FaultPlan::active();
  ServerOptions opts;
  auto flags = server_flags(opts);
  if (const auto code = flags.parse(argc, argv)) return *code;
  if (const auto error = opts.engine.check())
    return flags.usage_error(*error);
  try {
    const auto library = opts.engine.library();

    core::JobServiceConfig config;
    config.workers = opts.workers > 0
                         ? opts.workers
                         : std::max(1u, std::thread::hardware_concurrency());
    config.flow = opts.engine.flow_config();

    // One ExecutorPool shared by every worker's optimizer runs: total
    // fan-out stays bounded by workers + threads - 1 instead of
    // multiplying, and results are byte-identical for any --threads.
    support::ExecutorPool pool(
        support::ExecutorPool::from_option(opts.engine.threads));
    config.flow.pool = &pool;

    std::optional<core::ResultCache> cache;
    config.flow.cache = opts.engine.open_cache(cache);
    if (cache) {
      if (opts.cache_idle_evict_sec > 0)
        cache->set_idle_deadline(
            std::chrono::seconds(opts.cache_idle_evict_sec));
      std::cerr << "iddqsyn_server: cache " << *opts.engine.cache_dir << " ("
                << cache->size() << " entries";
      if (cache->corrupt_lines() > 0)
        std::cerr << ", " << cache->corrupt_lines() << " corrupt lines";
      std::cerr << ")\n";
    }

    core::JobService service(library, std::move(config));

    core::SessionTrafficStats traffic;
    core::JobProtocolOptions protocol_options;
    protocol_options.max_queue = opts.max_queue;
    protocol_options.session_queue = opts.serve.session_queue;
    protocol_options.max_jobs_per_session = opts.max_jobs_per_session;
    protocol_options.traffic = &traffic;
    protocol_options.default_deadline_ms = opts.job_timeout_ms;
    protocol_options.drain_timeout_ms = opts.drain_timeout_ms;
    std::atomic<bool> draining{false};
    protocol_options.draining = &draining;
    if (const auto listener = opts.serve.open_listener())
      return serve_listener(service, *listener, protocol_options, draining);

    support::StreamChannel channel(std::cin, std::cout);
    core::JobProtocolSession session(service, channel, protocol_options);
    (void)session.run();
    return 0;
  } catch (const Error& e) {
    std::cerr << "iddqsyn_server: " << e.what() << "\n";
    return 2;
  }
}
