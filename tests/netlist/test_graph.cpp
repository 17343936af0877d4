#include "netlist/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/builder.hpp"
#include "netlist/gen/c17.hpp"
#include "netlist/gen/random_dag.hpp"
#include "reference/graph.hpp"

namespace iddq::netlist {
namespace {

TEST(Graph, UndirectedAdjacencyIsSymmetric) {
  const Netlist nl = gen::make_c17();
  const UndirectedGraph g(nl);
  for (GateId u = 0; u < g.vertex_count(); ++u) {
    for (const GateId v : g.neighbors(u)) {
      const auto back = g.neighbors(v);
      EXPECT_TRUE(std::find(back.begin(), back.end(), u) != back.end())
          << u << " -> " << v << " not mirrored";
    }
  }
}

TEST(Graph, NeighborsAreSortedAndUnique) {
  const Netlist nl =
      gen::make_random_dag(gen::DagProfile::basic("rand", 120, 10, 11));
  const UndirectedGraph g(nl);
  for (GateId u = 0; u < g.vertex_count(); ++u) {
    const auto adj = g.neighbors(u);
    EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
    EXPECT_TRUE(std::adjacent_find(adj.begin(), adj.end()) == adj.end());
  }
}

TEST(Graph, EdgeCountConsistent) {
  const Netlist nl = gen::make_c17();
  const UndirectedGraph g(nl);
  std::size_t degree_sum = 0;
  for (GateId u = 0; u < g.vertex_count(); ++u)
    degree_sum += g.neighbors(u).size();
  EXPECT_EQ(degree_sum, 2 * g.edge_count());
}

TEST(Graph, C17Neighbors) {
  const Netlist nl = gen::make_c17();
  const UndirectedGraph g(nl);
  // Gate 16 connects to: 2 (fanin), 11 (fanin), 22, 23 (fanouts).
  const auto adj = g.neighbors(nl.at("16"));
  EXPECT_EQ(adj.size(), 4u);
}

TEST(Graph, BfsDistancesOnC17) {
  const Netlist nl = gen::make_c17();
  const UndirectedGraph g(nl);
  const auto dist = reference::bfs_within(g, nl.at("10"), 10);
  EXPECT_EQ(dist[nl.at("10")], 0u);
  EXPECT_EQ(dist[nl.at("22")], 1u);   // direct fanout
  EXPECT_EQ(dist[nl.at("16")], 2u);   // via 22
  EXPECT_EQ(dist[nl.at("1")], 1u);    // via its input
  EXPECT_EQ(dist[nl.at("11")], 2u);   // via shared input 3
}

TEST(Graph, BfsRadiusCutsOff) {
  const Netlist nl = gen::make_c17();
  const UndirectedGraph g(nl);
  const auto dist = reference::bfs_within(g, nl.at("10"), 1);
  EXPECT_EQ(dist[nl.at("22")], 1u);
  EXPECT_EQ(dist[nl.at("16")], kUnreached);  // distance 2 > radius 1
}

TEST(Graph, BfsUnreachableStaysUnreached) {
  // Two disconnected components.
  NetlistBuilder b("two");
  const auto a = b.add_input("a");
  const auto c = b.add_input("c");
  const auto x = b.add_gate(GateKind::kNot, "x", {a});
  const auto y = b.add_gate(GateKind::kNot, "y", {c});
  b.mark_output(x);
  b.mark_output(y);
  const Netlist nl = std::move(b).build();
  const UndirectedGraph g(nl);
  const auto dist = reference::bfs_within(g, x, 100);
  EXPECT_EQ(dist[y], kUnreached);
  EXPECT_EQ(dist[c], kUnreached);
}

}  // namespace
}  // namespace iddq::netlist
