// Simulated-annealing baseline optimizer.
//
// Section 4 of the paper lists simulated annealing among the applicable
// heuristics before choosing the evolution strategy; this implementation
// provides the comparison point (bench/ablation_baselines) under the same
// cost model and a matched evaluation budget.
//
// Moves are boundary-biased gate relocations (the same neighbourhood as the
// ES mutation); module deletion is excluded so K stays fixed at the start
// partition's value — the annealer refines gate placement, matching how the
// baseline comparison is set up. Infeasibility is folded into the objective
// with a large penalty so the Metropolis criterion remains scalar.
#pragma once

#include <cstdint>

#include "core/optimizer.hpp"

namespace iddq::core {

/// Tuning knobs of the annealer (the per-run inputs come from the
/// OptimizerRequest).
struct SaParams {
  std::size_t steps = 20000;
  double initial_acceptance = 0.3;  // calibrates T0 from sampled deltas
  double cooling = 0.995;           // geometric factor per temperature stage
  std::size_t stage_length = 100;   // steps per temperature stage
  double violation_penalty = 1.0e4;
};

/// Steps between two live progress reports of the annealer.
inline constexpr std::size_t kAnnealingProgressEvery = 1000;

/// Anneals from request.start_partition() with its own Rng(request.seed).
/// request.max_evaluations, when set, replaces params.steps. Reports every
/// kAnnealingProgressEvery steps, then once on completion. `iterations`
/// and `evaluations` both count objective evaluations. Throws iddq::Error
/// on invalid parameters.
[[nodiscard]] OptimizerOutcome run_annealing(const OptimizerRequest& request,
                                             const SaParams& params);

}  // namespace iddq::core
