#include "netlist/distance_oracle.hpp"

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/gen/c17.hpp"
#include "netlist/gen/random_dag.hpp"
#include "netlist/graph.hpp"
#include "reference/distance_oracle.hpp"
#include "reference/graph.hpp"

namespace iddq::netlist {
namespace {

TEST(DistanceOracle, MatchesBfsWithinRadius) {
  const Netlist nl =
      gen::make_random_dag(gen::DagProfile::basic("rand", 100, 10, 21));
  const std::uint32_t rho = 4;
  const DistanceOracle oracle(nl, rho);
  const UndirectedGraph graph(nl);
  for (GateId a = 0; a < nl.gate_count(); ++a) {
    const auto dist = reference::bfs_within(graph, a, rho);
    for (GateId b = 0; b < nl.gate_count(); ++b) {
      if (a == b) continue;
      const std::uint32_t expected =
          (dist[b] == kUnreached || dist[b] >= rho) ? rho : dist[b];
      ASSERT_EQ(oracle.separation(a, b), expected)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(DistanceOracle, SeparationIsSymmetric) {
  const Netlist nl = gen::make_c17();
  const DistanceOracle oracle(nl, 5);
  for (GateId a = 0; a < nl.gate_count(); ++a)
    for (GateId b = a + 1; b < nl.gate_count(); ++b)
      EXPECT_EQ(oracle.separation(a, b), oracle.separation(b, a));
}

TEST(DistanceOracle, AdjacentGatesHaveSeparationOne) {
  const Netlist nl = gen::make_c17();
  const DistanceOracle oracle(nl, 5);
  for (const GateId id : nl.logic_gates())
    for (const GateId f : nl.gate(id).fanins)
      EXPECT_EQ(oracle.separation(id, f), 1u);
}

TEST(DistanceOracle, SaturatesAtRho) {
  const Netlist nl = gen::make_c17();
  const DistanceOracle oracle(nl, 2);
  // 10 to 19: 10-22-16-19 or 10-1?-...: shortest is 3 hops (10,22,16,19)
  // or via inputs; with rho=2 everything >= 2 saturates.
  EXPECT_EQ(oracle.separation(nl.at("10"), nl.at("19")), 2u);
}

TEST(DistanceOracle, RhoOneStoresNothing) {
  const Netlist nl = gen::make_c17();
  const DistanceOracle oracle(nl, 1);
  EXPECT_EQ(oracle.entry_count(), 0u);
  EXPECT_EQ(oracle.separation(nl.at("10"), nl.at("22")), 1u);  // saturated
}

TEST(DistanceOracle, NearListsExcludeSelfAndAreSorted) {
  const Netlist nl =
      gen::make_random_dag(gen::DagProfile::basic("rand", 80, 8, 31));
  const DistanceOracle oracle(nl, 4);
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    GateId prev = kNoGate;
    for (const auto& e : oracle.near(g)) {
      EXPECT_NE(e.gate, g);
      EXPECT_GE(e.distance, 1u);
      EXPECT_LT(e.distance, 4u);
      if (prev != kNoGate) EXPECT_GT(e.gate, prev);
      prev = e.gate;
    }
  }
}

// ---- differential checks against the per-source bfs_within reference ----

void expect_matches_reference(const Netlist& nl) {
  for (const std::uint32_t rho : {1u, 2u, 3u, 4u, 6u}) {
    SCOPED_TRACE(nl.name() + " rho=" + std::to_string(rho));
    const DistanceOracle oracle(nl, rho);
    const auto want = reference::near_lists(nl, rho);
    std::size_t entries = 0;
    for (GateId g = 0; g < nl.gate_count(); ++g) {
      const auto got = oracle.near(g);
      ASSERT_EQ(got.size(), want[g].size()) << "gate " << g;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].gate, want[g][i].gate) << "gate " << g;
        EXPECT_EQ(got[i].distance, want[g][i].distance) << "gate " << g;
      }
      entries += want[g].size();
    }
    EXPECT_EQ(oracle.entry_count(), entries);
  }
}

TEST(DistanceOracle, MatchesReferenceOnGeneratedCircuits) {
  expect_matches_reference(gen::make_c17());
  expect_matches_reference(load_circuit("ila8x8"));
  expect_matches_reference(load_circuit("mult8"));
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    expect_matches_reference(gen::make_random_dag(gen::DagProfile::basic(
        "rand" + std::to_string(seed), 80 + 50 * seed, 6 + seed, seed)));
}

TEST(DistanceOracle, MatchesReferenceWithDisconnectedGates) {
  // Two components plus a gate whose only neighbour is its own input:
  // no BFS may leak across components, and isolated pairs saturate.
  NetlistBuilder b("islands");
  const GateId a = b.add_input("a");
  const GateId c = b.add_input("c");
  const GateId d = b.add_input("d");
  const GateId g1 = b.add_gate(GateKind::kNand, "g1", {a, c});
  const GateId g2 = b.add_gate(GateKind::kNot, "g2", {g1});
  const GateId g3 = b.add_gate(GateKind::kBuf, "g3", {g2});
  const GateId lone = b.add_gate(GateKind::kNot, "lone", {d});
  b.mark_output(g3);
  b.mark_output(lone);
  const Netlist nl = std::move(b).build();
  expect_matches_reference(nl);
  const DistanceOracle oracle(nl, 6);
  EXPECT_EQ(oracle.near(lone).size(), 1u);  // only its input pad
  EXPECT_EQ(oracle.separation(lone, g1), 6u);
}

}  // namespace
}  // namespace iddq::netlist
