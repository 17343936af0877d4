// DistanceOracle: bounded-radius all-pairs hop distances.
//
// Implements the separation parameter of section 3.3:
//
//   S(g_i, g_j) = hop distance between g_i and g_j in the undirected circuit
//                 graph, saturated to rho when the distance exceeds rho or no
//                 path exists.
//
// (The paper phrases the metric as "the minimum number of nodes traversed";
// we use hop count — adjacent gates have S = 1 — which preserves the paper's
// two stated properties: S decreases as connectivity increases and is minimal
// on a clique, while keeping S(M) strictly positive so c3 = log(S) is always
// defined.)
//
// The oracle precomputes, for every gate, the sorted list of gates strictly
// closer than rho; everything else is rho by definition. Queries are
// O(log degree_rho); module sums are computed incrementally by the
// separation estimator.
//
// Storage is CSR: one flat Entry array holding every near list back to
// back, and gate_count()+1 offsets into it. The build runs one bounded BFS
// per source over a shared scratch buffer (reset through its visited list),
// first to count the entries and then to fill the exactly sized array, so
// it costs O(sum of near-list sizes * degree) time and holds no per-source
// allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/graph.hpp"
#include "netlist/netlist.hpp"

namespace iddq::netlist {

class DistanceOracle {
 public:
  struct Entry {
    GateId gate;
    std::uint8_t distance;  // in [1, rho-1]
  };

  /// Builds the oracle with saturation distance `rho` (>= 1).
  DistanceOracle(const Netlist& nl, std::uint32_t rho);

  /// Saturation distance.
  [[nodiscard]] std::uint32_t rho() const noexcept { return rho_; }

  /// Separation of two distinct gates, in [1, rho].
  [[nodiscard]] std::uint32_t separation(GateId a, GateId b) const;

  /// Gates strictly closer than rho to `g` (excluding g itself), sorted by id.
  [[nodiscard]] std::span<const Entry> near(GateId g) const {
    return {entries_.data() + offsets_[g], entries_.data() + offsets_[g + 1]};
  }

  /// Total number of stored (gate, distance) entries, for memory accounting.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entries_.size();
  }

 private:
  std::uint32_t rho_;
  // near(g) is entries_[offsets_[g], offsets_[g + 1]).
  std::vector<std::size_t> offsets_;
  std::vector<Entry> entries_;
};

}  // namespace iddq::netlist
