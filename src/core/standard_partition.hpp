// The paper's "standard partitioning" baseline (section 5).
//
// "The process of standard partitioning starts with a gate as near to a
// primary input as possible. New gates are added until a specified size of
// the module is generated ... The new gate added is that gate whose path
// length to all the gates already clustered gives a minimum sum. If there
// are multiple choices, a gate of this set is selected such that the path
// lengths to all the gates not yet clustered give a maximum sum. A partition
// generated this way contains modules such that their gates are connected
// most closely."
//
// Module sizes are supplied by the caller — in the Table 1 experiment they
// are the sizes the evolution strategy discovered, exactly as in the paper.
// Path lengths use the same rho-saturated separation metric as c3.
// An indexed max-heap picks each next gate in O(log n), so a partition
// costs O(n + E log n) for E oracle near-list entries (docs/methods.md).
#pragma once

#include <span>

#include "core/optimizer.hpp"
#include "netlist/distance_oracle.hpp"
#include "netlist/netlist.hpp"
#include "partition/partition.hpp"

namespace iddq::core {

/// `module_sizes` must sum to the number of logic gates of `nl`.
[[nodiscard]] part::Partition standard_partition(
    const netlist::Netlist& nl, const netlist::DistanceOracle& oracle,
    std::span<const std::size_t> module_sizes);

/// The baseline as a search method: one evaluation of the standard
/// partition at request.start's module sizes (the sizes another method
/// discovered), or at an even split into request.resolved_module_count()
/// modules when there is no start. Seed-independent.
[[nodiscard]] OptimizerOutcome run_standard(const OptimizerRequest& request);

}  // namespace iddq::core
