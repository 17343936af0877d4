#include "netlist/distance_oracle.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace iddq::netlist {

namespace {

/// Bounded BFS over a scratch buffer shared by every source. `dist` holds
/// kUnreached everywhere between calls; `visited` doubles as the FIFO
/// queue and, after the call, lists exactly the vertices whose `dist` was
/// set (source first), which is how the caller resets them.
void bounded_bfs(const UndirectedGraph& graph, GateId source,
                 std::uint32_t radius, std::vector<std::uint32_t>& dist,
                 std::vector<GateId>& visited) {
  visited.clear();
  visited.push_back(source);
  dist[source] = 0;
  for (std::size_t head = 0; head < visited.size(); ++head) {
    const GateId u = visited[head];
    if (dist[u] >= radius) continue;
    for (const GateId v : graph.neighbors(u)) {
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        visited.push_back(v);
      }
    }
  }
}

void reset(std::span<const GateId> visited, std::vector<std::uint32_t>& dist) {
  for (const GateId v : visited) dist[v] = kUnreached;
}

}  // namespace

DistanceOracle::DistanceOracle(const Netlist& nl, std::uint32_t rho)
    : rho_(rho), offsets_(nl.gate_count() + 1, 0) {
  require(rho >= 1, "DistanceOracle: rho must be >= 1");
  if (rho_ == 1) return;  // every pair saturates; nothing to store
  const UndirectedGraph graph(nl);
  const std::uint32_t radius = rho_ - 1;
  std::vector<std::uint32_t> dist(nl.gate_count(), kUnreached);
  std::vector<GateId> visited;

  // Count pass: near(g) holds every vertex the BFS reached except g.
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    bounded_bfs(graph, g, radius, dist, visited);
    offsets_[g + 1] = offsets_[g] + (visited.size() - 1);
    reset(visited, dist);
  }

  // Fill pass into the exactly sized array, each list sorted by id for
  // binary search (the BFS visits level by level).
  entries_.resize(offsets_.back());
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    bounded_bfs(graph, g, radius, dist, visited);
    Entry* out = entries_.data() + offsets_[g];
    for (std::size_t i = 1; i < visited.size(); ++i) {
      const GateId v = visited[i];
      out[i - 1] = Entry{v, static_cast<std::uint8_t>(dist[v])};
    }
    std::sort(out, out + (visited.size() - 1),
              [](const Entry& a, const Entry& b) { return a.gate < b.gate; });
    reset(visited, dist);
  }
}

std::uint32_t DistanceOracle::separation(GateId a, GateId b) const {
  IDDQ_ASSERT(a + 1 < offsets_.size() && b + 1 < offsets_.size());
  IDDQ_ASSERT(a != b);
  const auto list = near(a);
  const auto it = std::lower_bound(
      list.begin(), list.end(), b,
      [](const Entry& e, GateId id) { return e.gate < id; });
  if (it != list.end() && it->gate == b) return it->distance;
  return rho_;
}

}  // namespace iddq::netlist
