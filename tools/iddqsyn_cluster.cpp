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
// Sessions are the job server's own (core::JobProtocolSession over the
// ClusterClient), served by the same accept loop. The front-end holds no
// result state: `stats` and `ping` fan out to every backend and return an
// aggregate (summed counters + per_backend array). A client "shutdown" op
// or SIGTERM drains the front-end only — backends keep running.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "core/job_protocol.hpp"
#include "library/cell_library.hpp"
#include "library/fingerprint.hpp"
#include "library/lib_io.hpp"
#include "shared_flags.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/flags.hpp"

namespace {

using namespace iddq;

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

    return opts.serve.serve("iddqsyn_cluster", client, {});
  } catch (const Error& e) {
    std::cerr << "iddqsyn_cluster: " << e.what() << "\n";
    return 2;
  }
}
