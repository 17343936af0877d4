// Test-only reference for netlist::DistanceOracle: one fresh
// reference::bfs_within per source, then a scan of all n distances. The
// production CSR build must yield the same near lists.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/distance_oracle.hpp"
#include "netlist/graph.hpp"
#include "netlist/netlist.hpp"
#include "reference/graph.hpp"

namespace iddq::reference {

/// near_lists(nl, rho)[g] is what DistanceOracle(nl, rho).near(g) must
/// hold: every other gate closer than rho, sorted by id.
inline std::vector<std::vector<netlist::DistanceOracle::Entry>> near_lists(
    const netlist::Netlist& nl, std::uint32_t rho) {
  std::vector<std::vector<netlist::DistanceOracle::Entry>> lists(
      nl.gate_count());
  if (rho <= 1) return lists;
  const netlist::UndirectedGraph graph(nl);
  for (netlist::GateId g = 0; g < nl.gate_count(); ++g) {
    const auto dist = bfs_within(graph, g, rho - 1);
    for (netlist::GateId v = 0; v < dist.size(); ++v) {
      if (v == g || dist[v] == netlist::kUnreached) continue;
      lists[g].push_back(netlist::DistanceOracle::Entry{
          v, static_cast<std::uint8_t>(dist[v])});
    }
  }
  return lists;
}

}  // namespace iddq::reference
