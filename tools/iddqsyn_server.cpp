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
// A client "shutdown" op or SIGTERM drains the whole server (pipe mode: a
// shutdown ends the session); EOF on a connection ends only that
// session. Determinism: a sweep submitted with seed S is byte-identical
// to `iddqsyn --jobs N --seed S` over the same circuits/methods —
// per-shard seeds derive from the shard index, never from scheduling.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <thread>
#include <utility>

#include "core/job_protocol.hpp"
#include "core/job_service.hpp"
#include "core/result_cache.hpp"
#include "shared_flags.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/fault_plan.hpp"
#include "support/flags.hpp"

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
    protocol_options.max_jobs_per_session = opts.max_jobs_per_session;
    protocol_options.traffic = &traffic;
    protocol_options.default_deadline_ms = opts.job_timeout_ms;
    protocol_options.drain_timeout_ms = opts.drain_timeout_ms;
    return opts.serve.serve("iddqsyn_server", service, protocol_options);
  } catch (const Error& e) {
    std::cerr << "iddqsyn_server: " << e.what() << "\n";
    return 2;
  }
}
