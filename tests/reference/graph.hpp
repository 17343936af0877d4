// Test-only reference for bounded BFS on the undirected circuit graph:
// one freshly allocated n-sized distance vector per source. DistanceOracle
// runs its own scratch-buffer BFS; tests/reference/distance_oracle.hpp
// builds the O(n^2) oracle from this one.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "netlist/graph.hpp"

namespace iddq::reference {

/// Hop distances from `source` to every vertex within `radius` hops.
/// Entries beyond the radius (or unreachable) are netlist::kUnreached.
inline std::vector<std::uint32_t> bfs_within(
    const netlist::UndirectedGraph& graph, netlist::GateId source,
    std::uint32_t radius) {
  std::vector<std::uint32_t> dist(graph.vertex_count(), netlist::kUnreached);
  dist[source] = 0;
  std::deque<netlist::GateId> queue{source};
  while (!queue.empty()) {
    const netlist::GateId u = queue.front();
    queue.pop_front();
    if (dist[u] >= radius) continue;
    for (const netlist::GateId v : graph.neighbors(u)) {
      if (dist[v] == netlist::kUnreached) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

}  // namespace iddq::reference
