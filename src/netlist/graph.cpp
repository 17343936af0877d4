#include "netlist/graph.hpp"

#include <algorithm>

namespace iddq::netlist {

UndirectedGraph::UndirectedGraph(const Netlist& nl) {
  adjacency_.resize(nl.gate_count());
  for (GateId id = 0; id < nl.gate_count(); ++id) {
    const Gate& g = nl.gate(id);
    auto& adj = adjacency_[id];
    adj.reserve(g.fanins.size() + g.fanouts.size());
    adj.insert(adj.end(), g.fanins.begin(), g.fanins.end());
    adj.insert(adj.end(), g.fanouts.begin(), g.fanouts.end());
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  for (const auto& adj : adjacency_) edges_ += adj.size();
  edges_ /= 2;
}

}  // namespace iddq::netlist
