// In-process cluster fixtures shared by the cluster suites: a synthetic
// circuit loader, a quick flow budget, TestBackend (the exact
// iddqsyn_server serving stack on a TCP port) and a Collector for a
// sweep's merged lines.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/flow_engine.hpp"
#include "core/job_protocol.hpp"
#include "core/job_service.hpp"
#include "library/cell_library.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/json.hpp"
#include "support/submit_request.hpp"
#include "support/transport.hpp"

namespace iddq::cluster {

inline netlist::Netlist synthetic_circuit(const std::string& spec) {
  const std::size_t gates = 120 + 40 * (spec.back() - 'a');
  return netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic(spec, gates, 10, 5));
}

inline core::FlowEngineConfig quick_config() {
  core::FlowEngineConfig config;
  config.optimizers.es.mu = 3;
  config.optimizers.es.lambda = 3;
  config.optimizers.es.chi = 1;
  config.optimizers.es.max_generations = 10;
  config.optimizers.es.stall_generations = 5;
  config.optimizers.random_samples = 50;
  return config;
}

/// A two-worker JobService over synthetic circuits.
inline std::unique_ptr<core::JobService> make_service(
    const lib::CellLibrary& library, core::JobService::CircuitLoader loader,
    core::FlowEngineConfig flow = quick_config()) {
  core::JobServiceConfig config;
  config.workers = 2;
  config.flow = std::move(flow);
  auto service = std::make_unique<core::JobService>(library, std::move(config));
  service->set_circuit_loader(std::move(loader));
  return service;
}

/// One in-process backend: the exact iddqsyn_server serving stack — a TCP
/// listener and the protocol's accept loop, each connection served by a
/// JobProtocolSession over a shared JobService.
class TestBackend {
 public:
  /// `port` 0 picks an ephemeral port; a fixed port lets a test restart a
  /// killed backend at the same endpoint (breaker half-open re-admission).
  TestBackend(const lib::CellLibrary& library,
              core::JobService::CircuitLoader loader,
              core::FlowEngineConfig flow = quick_config(),
              std::uint16_t port = 0)
      : listener_("127.0.0.1", port),
        endpoint_(listener_.endpoint()),
        service_(make_service(library, std::move(loader), std::move(flow))),
        server_(listener_, *service_, {}),
        accept_thread_([this] { (void)server_.serve(); }) {}

  ~TestBackend() {
    kill();
    accept_thread_.join();
  }

  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] core::JobService& service() { return *service_; }

  /// Simulates the backend dying: stop accepting and sever every live
  /// session connection (the cluster's readers see EOF).
  void kill() { server_.sever(); }

 private:
  support::TcpSocketListener listener_;
  std::string endpoint_;
  std::unique_ptr<core::JobService> service_;
  core::ProtocolServer server_;
  std::thread accept_thread_;  // last: starts after everything above
};

inline std::string kind_of(const std::string& line) {
  const auto event = json::JsonValue::parse(line);
  return event ? event->get_string("event") : "";
}

/// Thread-safe sink for one sweep's merged stream.
class Collector {
 public:
  support::SweepEmit fn() {
    return [this](const std::string& line, support::SweepLine kind) {
      const std::scoped_lock lock(mutex_);
      lines_.push_back(line);
      if (kind == support::SweepLine::sweep_done) {
        done_ = true;
        cv_.notify_all();
      }
    };
  }
  /// Blocks until the sweep's sweep_done line arrived.
  void wait_done() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return done_; });
  }
  std::vector<std::string> snapshot() {
    const std::scoped_lock lock(mutex_);
    return lines_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  bool done_ = false;
};

/// Runs `input` through a direct pipe-mode session (no cluster) and
/// returns the raw emitted lines — the golden stream.
inline std::vector<std::string> direct_stream(core::JobService& service,
                                              const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  support::StreamChannel channel(in, out);
  core::JobProtocolSession session(service, channel, {});
  (void)session.run();
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  return lines;
}

}  // namespace iddq::cluster
