// The protocol's submit op, decoded once for every front-end that accepts
// it: the job server session (core/job_protocol.hpp) and the cluster
// front-end (tools/iddqsyn_cluster.cpp). docs/server.md specifies the
// fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
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

}  // namespace iddq::support
