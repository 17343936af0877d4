// The protocol's submit op, decoded once, and the seam between the one
// protocol session (core/job_protocol.hpp) and what runs its sweeps: the
// job server's JobService or the cluster front-end's ClusterClient.
// docs/server.md specifies the fields and lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace iddq::support {

struct SubmitRequest {
  std::string id;
  std::vector<std::string> circuits;
  std::vector<std::string> methods{"evolution", "standard"};
  std::uint64_t seed = 1;
  /// Explicit per-shard base seeds (same length as circuits). When present
  /// they bypass the mix_seed(seed, shard) derivation entirely — this is
  /// how a cluster front-end makes seeds travel WITH a shard instead of
  /// depending on its position inside some backend's submit, so retrying a
  /// shard on another host cannot change its rows (docs/cluster.md).
  std::vector<std::uint64_t> seeds;
  std::size_t budget = 0;
  bool use_cache = true;
  /// Clamped to [-1e6, 1e6]; non-finite values read as 0.
  int priority = 0;
  /// Per-job wall-clock budget in ms; 0 = none.
  std::size_t deadline_ms = 0;
};

/// Decodes the fields of a submit op into a request named `id` (the caller
/// resolves a missing id, since auto-ids are per session). An absent
/// "deadline_ms" reads as `default_deadline_ms`. Throws iddq::Error with
/// the protocol error message on a malformed "seeds" entry, no circuits,
/// no methods, or a seeds/circuits length mismatch, checked in that order.
[[nodiscard]] SubmitRequest parse_submit_request(
    const json::JsonValue& request, std::string id,
    std::size_t default_deadline_ms);

/// The `accepted` line that opens every sweep's stream.
[[nodiscard]] std::string accepted_line(const SubmitRequest& request);

/// A protocol `error` line. A non-empty `id` names the submit it rejects,
/// so a relaying front-end can attribute it to a shard.
[[nodiscard]] std::string error_line(std::string_view message,
                                     std::string_view id = {});

/// What one line of a sweep's stream is to the session relaying it.
enum class SweepLine {
  progress,    // a progress tick: droppable under backpressure
  event,       // any other line: delivered in order
  sweep_done,  // the sweep's last line
};

/// Receives a sweep's lines; called from worker and reader threads as well
/// as the submitting one, and must not block.
using SweepEmit =
    std::function<void(const std::string& line, SweepLine kind)>;

/// A running sweep: the token SweepBackend::cancel takes.
class SweepHandle {
 public:
  virtual ~SweepHandle() = default;
};

/// Everything a protocol session leaves to what runs its sweeps.
class SweepBackend {
 public:
  virtual ~SweepBackend() = default;

  /// The `hello` line a session opens with.
  [[nodiscard]] virtual std::string hello_line() = 0;
  /// The `pong` answering a ping; echoes a non-empty `id`.
  [[nodiscard]] virtual std::string ping_line(std::string_view id) = 0;
  /// The `stats` line.
  [[nodiscard]] virtual std::string stats_line() = 0;

  /// Starts a sweep: emits accepted_line(request), then the sweep's
  /// events, then exactly one SweepLine::sweep_done line, possibly before
  /// it returns. Throws iddq::Error, having emitted nothing, when the
  /// sweep is rejected whole.
  virtual std::shared_ptr<SweepHandle> submit_sweep(
      const SubmitRequest& request, SweepEmit emit) = 0;

  /// Cooperative: the sweep still ends with its sweep_done line.
  virtual void cancel(SweepHandle& sweep) = 0;
};

}  // namespace iddq::support
