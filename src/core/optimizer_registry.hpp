// The fixed method table and its spec language.
//
// Every search method is one row of a fixed table: a name and the entry
// point that runs it with its tuning knobs from an OptimizerConfig. The
// rows: "annealing", "evolution", "force", "greedy", "random", "standard",
// "tabu". Adding a method is one run_<method>(request, knobs) function
// plus one row in optimizer_registry.cpp.
//
// Specs may compose rows with '+' ("evolution+greedy"): each later stage
// starts from the partition the previous stage produced — the idiomatic
// way to express a polish pass. The pipeline returns the best result any
// stage reached, a request budget is shared across the stages, and a stage
// that ignores its start beyond the module count (e.g. "random") cannot
// make the result worse.
//
// A spec starting with "portfolio:" races a comma-separated method list on
// a shared budget and returns the best outcome ("portfolio:evolution,
// annealing"); members may themselves be '+' pipelines, but portfolios do
// not nest and cannot appear as a stage inside a '+' pipeline. The budget
// is split evenly across the members (remainder to the leading ones, never
// a share of 0), members run at seeds Rng::mix_seed(request seed, member
// index) — concurrently on the request's pool when set — and the winner is
// reduced in member order (strict improvement, ties to the earliest), so a
// portfolio is exactly as deterministic as its members at any thread
// count.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/annealing.hpp"
#include "core/evolution.hpp"
#include "core/optimizer.hpp"
#include "core/tabu.hpp"

namespace iddq::core {

/// Tuning knobs of every method in the table. The FlowEngine and
/// JobService carry one of these; all of it is hashed into the result
/// cache's context fingerprint (the per-run inputs live in the request).
struct OptimizerConfig {
  EsParams es;
  SaParams sa;
  TabuParams tabu;
  std::size_t force_passes = 60;  // force-directed relaxation sweeps
  std::size_t random_samples = 2000;
  std::size_t greedy_max_evaluations = 100000;
};

/// Spec prefix that marks a portfolio race.
inline constexpr std::string_view kPortfolioPrefix = "portfolio:";

/// One row's entry point, bound to the tuning knobs it reads.
using OptimizerMethod = OptimizerOutcome (*)(const OptimizerRequest&,
                                             const OptimizerConfig&);

/// A spec parsed against the method table and bound to a copy of its
/// tuning knobs. `run` may be called repeatedly and from several threads:
/// the plan is immutable, and so is the EvalContext a request points at.
class OptimizerPlan {
 public:
  /// Parses `spec`. Throws iddq::LookupError for unknown or empty
  /// components, listing the valid names in the message, and iddq::Error
  /// for nested portfolios.
  OptimizerPlan(std::string_view spec, const OptimizerConfig& config);

  /// The normalized spec ("evolution+greedy", "portfolio:a,b").
  [[nodiscard]] std::string_view name() const noexcept { return name_; }

  [[nodiscard]] OptimizerOutcome run(const OptimizerRequest& request) const;

 private:
  struct Pipeline {
    std::string name;  // normalized '+' spec
    std::vector<OptimizerMethod> stages;
  };

  [[nodiscard]] static Pipeline parse_pipeline(std::string_view spec);
  [[nodiscard]] OptimizerOutcome run_pipeline(
      const Pipeline& pipeline, const OptimizerRequest& request) const;
  [[nodiscard]] OptimizerOutcome run_portfolio(
      const OptimizerRequest& request) const;

  std::string name_;
  bool portfolio_ = false;
  std::vector<Pipeline> members_;  // exactly one unless portfolio_
  OptimizerConfig config_;
};

/// Entry point to the method table.
class OptimizerRegistry {
 public:
  [[nodiscard]] static const OptimizerRegistry& global();

  /// The table's method names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Parses `spec` (see OptimizerPlan) and binds it to `config`.
  [[nodiscard]] std::unique_ptr<const OptimizerPlan> make(
      std::string_view spec, const OptimizerConfig& config = {}) const;
};

}  // namespace iddq::core
