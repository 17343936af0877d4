// Flags that more than one tool takes, declared once (support/flags.hpp
// holds the table itself).
//
//  * EngineFlags: the flow settings of iddqsyn and iddqsyn_server — the
//    paper's rail limit r, discriminability d and ES budget, the library,
//    coverage grading, the result cache and the intra-run thread pool.
//  * ServeFlags: how iddqsyn_server and iddqsyn_cluster accept sessions,
//    and the serving itself.
#pragma once

#include <cstddef>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "core/flow_engine.hpp"
#include "core/job_protocol.hpp"
#include "core/result_cache.hpp"
#include "library/cell_library.hpp"
#include "library/lib_io.hpp"
#include "sim/coverage.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/transport.hpp"

namespace iddq::tools {

struct EngineFlags {
  std::size_t threads = 0;  // 0 = IDDQ_THREADS default (1 when unset)
  std::optional<std::string> cache_dir;
  std::size_t cache_resident = 0;  // 0 = unbounded residency
  bool coverage = false;
  std::string fault_model = "mixed";
  std::size_t patterns = 256;
  bool minimize_patterns = false;
  std::optional<std::string> lib_path;
  double rail_mv = 200.0;
  double disc = 10.0;
  std::size_t generations = 350;

  void declare(support::FlagTable& flags) {
    flags
        .size("--threads", "N",
              "intra-run thread pool shared by all jobs (default 1 or "
              "IDDQ_THREADS; identical results for any N)",
              threads, 1)
        .text("--cache-dir", "DIR",
              "content-addressed result cache (docs/caching.md)", cache_dir)
        .size("--cache-resident", "N",
              "cap in-memory cache entries (LRU eviction to disk; default "
              "0 = unbounded)",
              cache_resident, 1)
        .flag("--coverage",
              "grade each row's partition by measured IDDQ fault coverage "
              "(docs/coverage.md)",
              coverage)
        .text("--fault-model", "M",
              "coverage fault model: mixed | bridges | shorts | "
              "bridges=N[,shorts=M] (default mixed)",
              fault_model)
        .size("--patterns", "N", "coverage test patterns (default 256)",
              patterns, 1)
        .flag("--minimize-patterns", "greedy set-cover pattern minimization",
              minimize_patterns)
        .text("--lib", "FILE", "cell library file (default: built-in 5V CMOS)",
              lib_path)
        .positive("--rail", "MV",
                  "rail perturbation limit r in mV (default 200, > 0)",
                  rail_mv)
        .positive("--disc", "D",
                  "required discriminability d (default 10, > 0)", disc)
        .size("--generations", "N", "ES generation cap (default 350, >= 1)",
              generations, 1);
  }

  /// Rejects a malformed --fault-model spec before any work starts;
  /// returns the error.
  [[nodiscard]] std::optional<std::string> check() const {
    if (!coverage) return std::nullopt;
    try {
      (void)sim::FaultModelSpec::parse(fault_model);
    } catch (const Error& e) {
      return e.what();
    }
    return std::nullopt;
  }

  [[nodiscard]] lib::CellLibrary library() const {
    return lib_path ? lib::read_library_file(*lib_path)
                    : lib::default_library();
  }

  /// The flow settings; the caller wires the pool, cache and callbacks.
  [[nodiscard]] core::FlowEngineConfig flow_config() const {
    core::FlowEngineConfig config;
    config.sensor.r_max_mv = rail_mv;
    config.sensor.d_min = disc;
    config.optimizers.es.max_generations = generations;
    config.coverage.enabled = coverage;
    config.coverage.fault_model = fault_model;
    config.coverage.patterns = patterns;
    config.coverage.minimize = minimize_patterns;
    return config;
  }

  /// Opens the --cache-dir cache into `cache`; nullptr without one.
  core::ResultCache* open_cache(std::optional<core::ResultCache>& cache) const {
    if (!cache_dir) return nullptr;
    cache.emplace(*cache_dir);
    if (cache_resident > 0) cache->set_max_resident(cache_resident);
    return &*cache;
  }
};

struct ServeFlags {
  bool pipe = false;  // pipe mode is "neither --socket nor --listen"
  std::optional<std::string> socket_path;
  std::optional<support::HostPort> listen;
  std::size_t session_queue = 1024;  // 0 = unbounded

  void declare(support::FlagTable& flags) {
    flags.flag("--pipe", "one session on stdin/stdout (default)", pipe)
        .text("--socket", "PATH", "listen on a unix-domain socket",
              socket_path)
        .host_port("--listen", "H:P",
                   "listen on a TCP host:port (port 0 = ephemeral, "
                   "announced on stderr)",
                   listen)
        .last_wins({"--pipe", "--socket", "--listen"})
        .size("--session-queue", "N",
              "per-session event-queue bound (default 1024; 0 = unbounded)",
              session_queue);
  }

  /// Serves the protocol with sessions over `backend` (a JobService or a
  /// ClusterClient): one session on stdin/stdout in pipe mode, else the
  /// accept loop on the selected listener, drained by a client's shutdown
  /// op or SIGTERM. Returns the exit code.
  template <typename Backend>
  int serve(const char* tool, Backend& backend,
            core::JobProtocolOptions options) const {
    options.session_queue = session_queue;
    std::unique_ptr<support::SocketListener> listener;
    if (listen)
      listener = std::make_unique<support::TcpSocketListener>(
          listen->first, listen->second);
    else if (socket_path)
      listener = std::make_unique<support::UnixSocketListener>(*socket_path);
    if (listener == nullptr) {
      support::StreamChannel channel(std::cin, std::cout);
      (void)core::JobProtocolSession(backend, channel, options).run();
      return 0;
    }
    // Tests (and `--listen host:0` deployments) parse the endpoint — which
    // carries the kernel-assigned port — from this line.
    std::cerr << tool << ": listening on " << listener->endpoint() << "\n";
    core::ProtocolServer server(*listener, backend, options);
    server.drain_on_sigterm();
    std::cerr << tool << ": "
              << (server.serve() ? "shutdown requested by client"
                                 : "drained (signal or listener closed)")
              << "\n";
    return 0;
  }
};

}  // namespace iddq::tools
