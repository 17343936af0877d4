// Test-only reference for core::standard_partition: the direct O(n^2)
// reading of the paper's section 5 procedure. Every pick rescans all logic
// gates, and ties go to the first gate in logic_gates() order. The
// production version must return a bit-identical partition.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "netlist/distance_oracle.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "partition/partition.hpp"
#include "support/error.hpp"

namespace iddq::reference {

inline part::Partition standard_partition_scan(
    const netlist::Netlist& nl, const netlist::DistanceOracle& oracle,
    std::span<const std::size_t> module_sizes) {
  const std::size_t n = nl.logic_gate_count();
  const std::size_t total = std::accumulate(
      module_sizes.begin(), module_sizes.end(), std::size_t{0});
  require(total == n, "reference standard partition: module sizes must sum "
                      "to " + std::to_string(n));

  const auto levels = netlist::levelize(nl);
  const double rho = static_cast<double>(oracle.rho());

  std::vector<bool> free_gate(nl.gate_count(), false);
  for (const netlist::GateId g : nl.logic_gates()) free_gate[g] = true;

  std::vector<double> discount_cluster(nl.gate_count(), 0.0);
  std::vector<double> discount_free(nl.gate_count(), 0.0);
  for (const netlist::GateId g : nl.logic_gates())
    for (const auto& [neighbor, distance] : oracle.near(g))
      if (free_gate[neighbor])
        discount_free[g] += rho - static_cast<double>(distance);

  part::Partition partition(nl.gate_count(), module_sizes.size());

  const auto add_to_cluster = [&](netlist::GateId g, std::uint32_t m) {
    partition.assign(g, m);
    free_gate[g] = false;
    for (const auto& [neighbor, distance] : oracle.near(g)) {
      const double weight = rho - static_cast<double>(distance);
      discount_cluster[neighbor] += weight;
      discount_free[neighbor] -= weight;
    }
  };

  for (std::uint32_t m = 0; m < module_sizes.size(); ++m) {
    netlist::GateId seed = netlist::kNoGate;
    std::size_t seed_depth = static_cast<std::size_t>(-1);
    for (const netlist::GateId g : nl.logic_gates()) {
      if (!free_gate[g]) continue;
      if (levels.depth[g] < seed_depth) {
        seed_depth = levels.depth[g];
        seed = g;
      }
    }
    std::fill(discount_cluster.begin(), discount_cluster.end(), 0.0);
    add_to_cluster(seed, m);

    for (std::size_t added = 1; added < module_sizes[m]; ++added) {
      netlist::GateId best = netlist::kNoGate;
      double best_discount = -1.0;
      double best_tiebreak = 0.0;
      for (const netlist::GateId g : nl.logic_gates()) {
        if (!free_gate[g]) continue;
        const double d = discount_cluster[g];
        const double tb = discount_free[g];
        if (best == netlist::kNoGate || d > best_discount ||
            (d == best_discount && tb < best_tiebreak)) {
          best = g;
          best_discount = d;
          best_tiebreak = tb;
        }
      }
      add_to_cluster(best, m);
    }
  }
  return partition;
}

}  // namespace iddq::reference
