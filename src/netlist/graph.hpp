// Undirected view of the circuit graph.
//
// The interconnection cost of section 3.3 is defined on "the undirected graph
// of the logic circuit": two gates are adjacent when one drives the other.
// Primary-input pads participate as traversable vertices (a path may run
// through a shared input).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace iddq::netlist {

/// Adjacency lists of the undirected circuit graph (deduplicated, sorted).
class UndirectedGraph {
 public:
  explicit UndirectedGraph(const Netlist& nl);

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return adjacency_.size();
  }

  [[nodiscard]] std::span<const GateId> neighbors(GateId id) const {
    return adjacency_[id];
  }

  /// Total number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

 private:
  std::vector<std::vector<GateId>> adjacency_;
  std::size_t edges_ = 0;
};

/// Hop distance of a vertex beyond a bounded BFS's radius or unreachable
/// (DistanceOracle's scratch-buffer BFS; the per-source reference BFS
/// lives in tests/reference/graph.hpp).
inline constexpr std::uint32_t kUnreached = static_cast<std::uint32_t>(-1);

}  // namespace iddq::netlist
