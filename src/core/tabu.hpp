// Tabu search over partition moves.
//
// Best-of-neighbourhood local search with a recency-based tabu attribute:
// each iteration samples a small candidate set of boundary-gate moves
// (core/neighborhood.hpp — the same neighbourhood as the ES mutation and
// the annealer), evaluates every candidate, and applies the best one whose
// gate is not tabu. A gate that just moved may not move again for `tenure`
// iterations, which lets the search climb out of the local optima that trap
// the greedy refiner; the aspiration criterion overrides the tabu when a
// candidate beats the best objective seen so far. K stays fixed at the
// start partition's value (moves never empty a module).
//
// Fully deterministic at a fixed seed: candidate sampling is the only
// stochastic element and draws from the explicit Rng.
#pragma once

#include <cstdint>

#include "core/optimizer.hpp"

namespace iddq::core {

/// Tuning knobs of the tabu search (the per-run inputs come from the
/// OptimizerRequest).
struct TabuParams {
  std::size_t iterations = 400;        // move rounds (best-of-candidates)
  std::size_t candidates = 8;          // sampled neighbourhood per round
  std::size_t tenure = 12;             // rounds a moved gate stays tabu
  std::size_t stall_iterations = 120;  // stop after this many without gain
  double violation_penalty = 1.0e4;
};

/// Rounds between two live progress reports of the tabu search.
inline constexpr std::size_t kTabuProgressEvery = 25;

/// Searches from request.start_partition() with its own Rng(request.seed).
/// request.max_evaluations, when set, maps to rounds: every round spends
/// up to `candidates` evaluations, so the search runs
/// max(1, max_evaluations / candidates) rounds. With request.pool each
/// round's candidate set is scored in parallel: the moves are sampled on
/// the coordinator (all RNG draws, fixed order), then scored against the
/// round-start state with the copy-free probe_move on one private
/// evaluator copy per concurrency slot, so the search is byte-identical
/// at any thread count. Reports every kTabuProgressEvery rounds, then once
/// on completion. `iterations` counts rounds. Throws iddq::Error on
/// invalid parameters.
[[nodiscard]] OptimizerOutcome run_tabu(const OptimizerRequest& request,
                                        const TabuParams& params);

}  // namespace iddq::core
