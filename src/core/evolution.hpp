// Evolution strategy for PART-IDDQ (paper section 4).
//
// Rechenberg/Schwefel-style evolution strategy adapted to partitions:
//
//  * Recombination is plain duplication ("just one parent is sufficient for
//    a child", section 4.1).
//  * Mutation: pick a module M_start, determine its boundary gates (gates
//    directly connected to a gate outside M_start), draw
//    m_move ~ U{1..min(m, |boundary|)} and move that many random boundary
//    gates into the (randomly chosen, when several) neighbouring target
//    module they are connected with.
//  * Monte-Carlo descendants: a random number of gates of a random module
//    moves into a random module; emptied modules are deleted. These larger
//    steps reduce the probability of getting caught in a local minimum.
//  * The step width m of each descendant is re-drawn from a normal
//    distribution with std-dev epsilon around the parent's m
//    (self-adaptation).
//  * Selection: out of parents and the (lambda + chi) * mu descendants, the
//    best mu individuals survive; parents older than kappa generations are
//    always retired.
//  * Costs are recomputed incrementally for the modified modules only
//    (PartitionEvaluator); the constraint Gamma is enforced by lexicographic
//    (violation, cost) fitness so infeasible partitions never dominate.
#pragma once

#include <cstdint>

#include "core/optimizer.hpp"

namespace iddq::core {

/// Tuning knobs of the evolution strategy (the per-run inputs come from
/// the OptimizerRequest).
struct EsParams {
  std::size_t mu = 8;        // parents
  std::size_t lambda = 7;    // mutation children per parent
  std::size_t chi = 2;       // Monte-Carlo descendants per parent
  std::size_t kappa = 8;     // maximum lifetime, generations
  std::uint32_t m0 = 4;      // initial step width (max gates per mutation)
  std::uint32_t m_max = 64;  // hard cap on the step width
  double epsilon = 1.0;      // std-dev of the step-width mutation
  std::size_t max_generations = 300;
  std::size_t stall_generations = 40;  // stop after this many without gain
};

/// Runs the evolution strategy. The population starts from copies of
/// `request.start` when set, otherwise from mu chain-clustered start
/// partitions with request.resolved_module_count() modules (section 4.2)
/// drawn from the search's own Rng(request.seed). Reports every generation
/// after selection, then once on completion; records the per-generation
/// trace when request.record_trace is set. With request.pool the
/// descendants of each generation evaluate in parallel: every random draw
/// and every mutation happens on the coordinator thread in the fixed
/// serial order, and workers only compute the fitness of finished children
/// into pre-indexed slots, so the outcome is byte-identical at any thread
/// count. `iterations` counts generations. Throws iddq::Error on invalid
/// parameters.
[[nodiscard]] OptimizerOutcome run_evolution(const OptimizerRequest& request,
                                             const EsParams& params);

}  // namespace iddq::core
