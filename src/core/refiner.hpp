// Greedy first-improvement refiner.
//
// Deterministic hill climbing over the ES mutation neighbourhood (boundary
// gate -> adjacent module): scans boundary gates in order, applies any move
// that improves the lexicographic fitness, and stops when a full sweep finds
// none (a local optimum of the 1-move neighbourhood) or the evaluation
// budget is exhausted. Serves both as an optimizer baseline and as an
// optional polish pass after the ES.
//
// Candidates are scored with the evaluator's copy-free probe_move, so a
// rejected trial leaves NO trace in the running sums. This is a deliberate
// re-pin versus the historical move-then-evaluate-then-revert scan, whose
// rejected trials chained floating-point residue through the sums (making
// every trial depend on all earlier ones — inherently sequential); the
// residue-free trajectory is what lets the scan parallelize, and the
// result-cache salt was bumped to v3 so old greedy-family rows cannot
// replay (src/core/result_cache.cpp). With an ExecutorPool the scan
// speculatively scores a window of upcoming candidates in parallel (one
// private evaluator copy per concurrency slot) and then replays the serial
// first-improvement walk over the scores, so the applied moves, evaluation
// counts, and every double are byte-identical at any thread count;
// candidates past the first improvement are discarded (wasted speculative
// work, never wrong results).
#pragma once

#include "core/optimizer.hpp"
#include "partition/evaluator.hpp"

namespace iddq::support {
class ExecutorPool;
}

namespace iddq::core {

struct RefineResult {
  std::size_t moves_applied = 0;
  std::size_t evaluations = 0;
  part::Fitness final_fitness;
};

/// Refines `eval` in place. `pool` parallelizes the candidate scan when
/// non-null (a per-run knob like a seed — results are pool-invariant).
RefineResult greedy_refine(part::PartitionEvaluator& eval,
                           std::size_t max_evaluations = 100000,
                           support::ExecutorPool* pool = nullptr);

/// The refiner as a search method: refines request.start_partition() on
/// request.pool. request.max_evaluations, when set, replaces
/// `max_evaluations`. `iterations` counts the moves applied.
[[nodiscard]] OptimizerOutcome run_greedy(const OptimizerRequest& request,
                                          std::size_t max_evaluations);

}  // namespace iddq::core
