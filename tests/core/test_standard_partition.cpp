#include "core/standard_partition.hpp"

#include <gtest/gtest.h>

#include "netlist/circuit_loader.hpp"
#include "netlist/gen/c17.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "netlist/levelize.hpp"
#include "reference/standard_partition.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

TEST(StandardPartition, ProducesRequestedSizes) {
  const auto nl = netlist::gen::make_iscas_like("c1908");
  const netlist::DistanceOracle oracle(nl, 4);
  const std::vector<std::size_t> sizes = {400, 300, 180};
  const auto p = standard_partition(nl, oracle, sizes);
  ASSERT_EQ(p.module_count(), 3u);
  for (std::size_t m = 0; m < sizes.size(); ++m)
    EXPECT_EQ(p.module_size(static_cast<std::uint32_t>(m)), sizes[m]);
  EXPECT_TRUE(p.covers(nl));
}

TEST(StandardPartition, SeedIsNearPrimaryInput) {
  const auto nl = netlist::gen::make_c17();
  const netlist::DistanceOracle oracle(nl, 4);
  const std::vector<std::size_t> sizes = {3, 3};
  const auto p = standard_partition(nl, oracle, sizes);
  const auto lv = netlist::levelize(nl);
  // The first gate clustered into module 0 must be at depth 1.
  std::size_t min_depth = 100;
  for (const auto g : p.module(0)) min_depth = std::min(min_depth, lv.depth[g]);
  EXPECT_EQ(min_depth, 1u);
}

TEST(StandardPartition, ModulesAreWellConnected) {
  // The paper: "modules such that their gates are connected most closely".
  // Intra-module edge fraction must far exceed a random scatter's.
  const auto nl = netlist::gen::make_iscas_like("c2670");
  const netlist::DistanceOracle oracle(nl, 4);
  const std::size_t n = nl.logic_gate_count();
  const std::vector<std::size_t> sizes = {n / 3, n / 3, n - 2 * (n / 3)};
  const auto p = standard_partition(nl, oracle, sizes);
  std::size_t intra = 0;
  std::size_t total = 0;
  for (const auto g : nl.logic_gates()) {
    for (const auto f : nl.gate(g).fanouts) {
      ++total;
      if (p.module_of(g) == p.module_of(f)) ++intra;
    }
  }
  EXPECT_GT(static_cast<double>(intra) / static_cast<double>(total), 0.55);
}

TEST(StandardPartition, DeterministicByConstruction) {
  const auto nl = netlist::gen::make_iscas_like("c1908");
  const netlist::DistanceOracle oracle(nl, 4);
  const std::vector<std::size_t> sizes = {440, 440};
  const auto a = standard_partition(nl, oracle, sizes);
  const auto b = standard_partition(nl, oracle, sizes);
  EXPECT_EQ(a, b);
}

TEST(StandardPartition, RejectsWrongTotal) {
  const auto nl = netlist::gen::make_c17();
  const netlist::DistanceOracle oracle(nl, 4);
  EXPECT_THROW((void)standard_partition(nl, oracle,
                                        std::vector<std::size_t>{3, 2}),
               Error);
}

TEST(StandardPartition, RejectsZeroSizeModule) {
  const auto nl = netlist::gen::make_c17();
  const netlist::DistanceOracle oracle(nl, 4);
  EXPECT_THROW((void)standard_partition(nl, oracle,
                                        std::vector<std::size_t>{6, 0}),
               Error);
}

TEST(StandardPartition, SingleModuleTakesEverything) {
  const auto nl = netlist::gen::make_c17();
  const netlist::DistanceOracle oracle(nl, 4);
  const auto p =
      standard_partition(nl, oracle, std::vector<std::size_t>{6});
  EXPECT_EQ(p.module_count(), 1u);
  EXPECT_EQ(p.module_size(0), 6u);
}

// ---- differential checks against the O(n^2) scan in tests/reference ----

/// Module-size vectors that stress the seed cursor and the per-module
/// reset: all size-1 modules, one module, an even split and uneven splits.
std::vector<std::vector<std::size_t>> size_vectors(std::size_t n,
                                                   std::uint64_t seed) {
  std::vector<std::vector<std::size_t>> out;
  out.emplace_back(n, 1);
  out.push_back({n});
  if (n >= 2) out.push_back({n / 2, n - n / 2});
  if (n >= 3) out.push_back({1, n - 2, 1});
  Rng rng(seed);
  std::vector<std::size_t> uneven;
  for (std::size_t left = n; left > 0;) {
    const std::size_t take = std::min<std::size_t>(
        left, 1 + rng.index(std::max<std::size_t>(1, n / 3)));
    uneven.push_back(take);
    left -= take;
  }
  out.push_back(uneven);
  return out;
}

void expect_matches_reference(const netlist::Netlist& nl, std::uint32_t rho,
                              std::uint64_t seed) {
  const netlist::DistanceOracle oracle(nl, rho);
  for (const auto& sizes : size_vectors(nl.logic_gate_count(), seed)) {
    SCOPED_TRACE(nl.name() + " rho=" + std::to_string(rho) + " modules=" +
                 std::to_string(sizes.size()));
    EXPECT_EQ(standard_partition(nl, oracle, sizes),
              reference::standard_partition_scan(nl, oracle, sizes));
  }
}

TEST(StandardPartition, MatchesReferenceOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto nl =
        netlist::gen::make_random_dag(netlist::gen::DagProfile::basic(
            "rand" + std::to_string(seed), 60 + 40 * seed, 4 + seed, seed));
    for (const std::uint32_t rho : {2u, 4u, 6u})
      expect_matches_reference(nl, rho, seed);
  }
}

TEST(StandardPartition, MatchesReferenceOnTieHeavyCircuits) {
  // Regular arrays and c17 produce many exactly equal discount pairs, so
  // the (position asc) tie-break decides most picks.
  expect_matches_reference(netlist::gen::make_c17(), 4, 17);
  for (const char* name : {"ila8x8", "mult8"})
    for (const std::uint32_t rho : {3u, 4u})
      expect_matches_reference(netlist::load_circuit(name), rho, 8);
  expect_matches_reference(netlist::gen::make_iscas_like("c1908"), 4, 1908);
}

}  // namespace
}  // namespace iddq::core
