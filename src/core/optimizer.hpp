// Per-run vocabulary of the search methods.
//
// Section 4 of the paper names several applicable heuristics (force-driven,
// simulated annealing, Monte Carlo, genetic) before adopting the evolution
// strategy. The repo runs seven search methods (those four, tabu, greedy
// and the section-5 standard partitioning), and each is one function
//
//   OptimizerOutcome run_<method>(const OptimizerRequest&, <tuning knobs>)
//
// that reads every per-run input (context, start, budget, seed, pool,
// progress sink, trace flag) from the request and returns one outcome.
// The fixed method table that maps spec strings onto these functions, and
// the tuning knobs they take, live in core/optimizer_registry.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "partition/evaluator.hpp"

namespace iddq::support {
class ExecutorPool;
}

namespace iddq::core {

/// Snapshot handed to OptimizerRequest::on_progress. The evolution,
/// annealing, and tabu searches report live (every generation, every 1000
/// steps, every 25 rounds) plus once on completion; the single-shot
/// methods (standard, force, random, greedy) report on completion only.
/// Callbacks may be invoked from worker threads and must never mutate
/// search state — they can also throw (e.g. CancelledError) to abort the
/// run, which is how JobService implements mid-run cancellation.
struct OptimizerProgress {
  std::string_view method;
  std::size_t iteration = 0;  // method-specific major step (see Outcome)
  std::size_t evaluations = 0;
  part::Fitness best;
};

using ProgressCallback = std::function<void(const OptimizerProgress&)>;

/// One evolution-strategy generation after selection (the convergence
/// trace of OptimizerOutcome::trace).
struct GenerationStats {
  std::size_t generation = 0;
  part::Fitness best;
  double mean_cost = 0.0;        // over surviving parents
  std::size_t module_count = 0;  // of the best individual
  std::uint32_t best_step_width = 0;
  std::size_t evaluations = 0;  // cumulative, whole run
};

/// Uniform result. `iterations` counts the method's own major steps:
/// ES generations, annealing steps, tabu rounds, random-search samples,
/// greedy moves applied, force relaxation passes; 1 for the deterministic
/// standard clustering.
struct OptimizerOutcome {
  std::string method;
  part::Partition partition{1, 1};
  part::Fitness fitness;
  part::Costs costs;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  std::vector<GenerationStats> trace;  // non-empty only when recorded
};

/// Everything a search method needs for one run. The EvalContext must
/// outlive the run; the request itself is read-only to the method.
struct OptimizerRequest {
  const part::EvalContext* ctx = nullptr;  // required

  /// Explicit start partition. When empty, the method builds chain-
  /// clustered starts (section 4.2) with `module_count` modules.
  std::optional<part::Partition> start;

  /// Start-partition module count when `start` is empty; 0 means "plan it"
  /// via plan_module_size (section 4.2, first step).
  std::size_t module_count = 0;

  /// Evaluation budget. 0 keeps each method's configured default; the
  /// evolution strategy is generation-bounded and ignores this field.
  std::size_t max_evaluations = 0;

  std::uint64_t seed = 1;
  bool record_trace = false;     // evolution: fill OptimizerOutcome::trace
  ProgressCallback on_progress;  // may be empty

  /// Intra-run parallelism: candidate evaluations (ES descendants, tabu
  /// candidate sets, random samples, greedy scans) and portfolio members
  /// run on this pool when set. Results are byte-identical with and
  /// without a pool at any thread count — see docs/architecture.md,
  /// "Threading model". nullptr = single-threaded. Like seed, a per-run
  /// input, never part of cache keys.
  support::ExecutorPool* pool = nullptr;

  /// The evaluation context; throws iddq::Error when `ctx` is null.
  [[nodiscard]] const part::EvalContext& context() const;

  /// `start`'s module count, else `module_count`, else the planned one.
  [[nodiscard]] std::size_t resolved_module_count() const;

  /// `start`, or a chain-clustered start with resolved_module_count()
  /// modules drawn from its own Rng(seed).
  [[nodiscard]] part::Partition start_partition() const;

  /// Forwards one tick to on_progress (no-op when it is empty).
  void report(std::string_view method, std::size_t iteration,
              std::size_t evaluations, const part::Fitness& best) const;

  /// The final tick every method sends on completion.
  void report(const OptimizerOutcome& outcome) const {
    report(outcome.method, outcome.iterations, outcome.evaluations,
           outcome.fitness);
  }
};

}  // namespace iddq::core
