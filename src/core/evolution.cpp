#include "core/evolution.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/neighborhood.hpp"
#include "core/start_partition.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

class EvolutionEngine {
 public:
  EvolutionEngine(const OptimizerRequest& request, const EsParams& params);

  /// Runs from a non-empty set of start partitions (their number may
  /// differ from mu; they are cycled to fill the initial population).
  [[nodiscard]] OptimizerOutcome run(std::span<const part::Partition> starts);

  /// Builds mu chain-clustered start partitions with `module_count`
  /// modules (section 4.2) and runs.
  [[nodiscard]] OptimizerOutcome run_with_module_count(
      std::size_t module_count);

 private:
  struct Individual {
    part::PartitionEvaluator eval;
    part::Fitness fitness;
    std::uint32_t step_width = 1;
    std::size_t age = 0;
  };

  void mutate(Individual& child);
  void monte_carlo(Individual& child);
  [[nodiscard]] std::uint32_t vary_step_width(std::uint32_t m);

  const OptimizerRequest* request_;
  const part::EvalContext* ctx_;
  EsParams params_;
  Rng rng_;
};

EvolutionEngine::EvolutionEngine(const OptimizerRequest& request,
                                 const EsParams& params)
    : request_(&request),
      ctx_(&request.context()),
      params_(params),
      rng_(request.seed) {
  require(params_.mu >= 1, "evolution: mu must be >= 1");
  require(params_.lambda + params_.chi >= 1,
          "evolution: need at least one descendant per parent");
  require(params_.m0 >= 1 && params_.m0 <= params_.m_max,
          "evolution: step width out of range");
  require(params_.kappa >= 1, "evolution: kappa must be >= 1");
}

std::uint32_t EvolutionEngine::vary_step_width(std::uint32_t m) {
  const double varied = rng_.normal(static_cast<double>(m), params_.epsilon);
  const auto rounded = static_cast<std::int64_t>(std::llround(varied));
  if (rounded < 1) return 1;
  if (rounded > static_cast<std::int64_t>(params_.m_max)) return params_.m_max;
  return static_cast<std::uint32_t>(rounded);
}

void EvolutionEngine::mutate(Individual& child) {
  auto& eval = child.eval;
  const auto& p = eval.partition();
  if (p.module_count() < 2) return;  // nothing to move between

  // Pick a start module that has boundary gates (every module of a
  // connected partition has some; guard against pathological cases).
  std::vector<netlist::GateId> boundary;
  std::uint32_t m_start = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    m_start = static_cast<std::uint32_t>(rng_.index(p.module_count()));
    boundary = boundary_gates(eval, m_start);
    if (!boundary.empty()) break;
  }
  if (boundary.empty()) return;

  const std::uint64_t cap =
      std::min<std::uint64_t>(child.step_width, boundary.size());
  const std::size_t m_move = 1 + static_cast<std::size_t>(rng_.below(cap));
  rng_.shuffle(boundary);
  boundary.resize(m_move);

  std::vector<std::uint32_t> targets;
  for (const netlist::GateId g : boundary) {
    // The gate moves into a random neighbouring module it connects with.
    // (Earlier moves of this mutation may have changed memberships, so the
    // neighbour set is recomputed per gate.)
    neighbor_modules(eval, g, eval.partition().module_of(g), targets);
    if (targets.empty()) continue;  // became interior; skip
    eval.move_gate(g, targets[rng_.index(targets.size())]);
    if (eval.partition().module_count() < 2) break;
  }
}

void EvolutionEngine::monte_carlo(Individual& child) {
  auto& eval = child.eval;
  if (eval.partition().module_count() < 2) return;
  const auto src = static_cast<std::uint32_t>(
      rng_.index(eval.partition().module_count()));
  std::uint32_t dst = src;
  while (dst == src)
    dst = static_cast<std::uint32_t>(
        rng_.index(eval.partition().module_count()));
  const std::size_t count =
      1 + static_cast<std::size_t>(
              rng_.below(eval.partition().module_size(src)));
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t remaining = eval.partition().module_size(src);
    if (remaining == 0) break;  // module was emptied and deleted
    const netlist::GateId g =
        eval.partition().module(src)[rng_.index(remaining)];
    eval.move_gate(g, dst);
    if (eval.partition().module_count() < 2) break;
    // If the source module was deleted, its slot may now hold another
    // module; stop moving in that case (the paper deletes the module and
    // the descendant is complete).
    if (remaining == 1) break;
  }
}

OptimizerOutcome EvolutionEngine::run_with_module_count(
    std::size_t module_count) {
  std::vector<part::Partition> starts;
  starts.reserve(params_.mu);
  for (std::size_t i = 0; i < params_.mu; ++i)
    starts.push_back(make_start_partition(ctx_->nl, module_count, rng_));
  return run(starts);
}

OptimizerOutcome EvolutionEngine::run(
    std::span<const part::Partition> starts) {
  std::vector<Individual> parents;
  parents.reserve(params_.mu);
  for (std::size_t i = 0; i < params_.mu; ++i) {
    part::PartitionEvaluator eval(*ctx_, starts[i % starts.size()]);
    parents.push_back(Individual{std::move(eval), {}, params_.m0, 0});
  }
  // Fitness consumes no randomness and touches only the individual's own
  // evaluator, so the initial population (and every generation's children
  // below) evaluates in parallel without perturbing the trajectory.
  support::parallel_for_indexed(request_->pool, parents.size(),
                                [&parents](std::size_t i) {
                                  parents[i].fitness =
                                      parents[i].eval.fitness();
                                });

  OptimizerOutcome result;
  result.method = "evolution";
  result.evaluations = parents.size();
  auto best = parents.front();
  for (const auto& p : parents)
    if (p.fitness < best.fitness) best = p;

  std::size_t stall = 0;
  for (std::size_t gen = 0; gen < params_.max_generations; ++gen) {
    std::vector<Individual> pool;
    pool.reserve(parents.size() * (1 + params_.lambda + params_.chi));

    // Coordinator phase: every RNG draw (step widths, mutation moves)
    // happens here, in the fixed serial order; children land in pre-
    // indexed slots with their fitness still unset.
    std::vector<std::size_t> fresh;  // pool slots that need evaluation
    fresh.reserve(parents.size() * (params_.lambda + params_.chi));
    for (auto& parent : parents) {
      parent.age += 1;
      for (std::size_t c = 0; c < params_.lambda; ++c) {
        // Recombination = duplication. The copy shares the parent's
        // (synced) module current profiles copy-on-write — mutate() clones
        // only the profiles of the modules it touches — and deliberately
        // drops the timing arrival state (evaluator copy semantics); the
        // child's fitness() refresh rederives only its mutation-dirtied
        // modules and rebuilds the arrivals — bit-identical to a full
        // evaluation of the child's partition. Children are mutated here
        // on the coordinator and only refreshed on the workers, so no
        // shared profile is ever written concurrently.
        Individual child = parent;
        child.age = 0;
        child.step_width = vary_step_width(parent.step_width);
        mutate(child);
        ++result.evaluations;
        fresh.push_back(pool.size());
        pool.push_back(std::move(child));
      }
      for (std::size_t c = 0; c < params_.chi; ++c) {
        Individual child = parent;
        child.age = 0;
        child.step_width = vary_step_width(parent.step_width);
        monte_carlo(child);
        ++result.evaluations;
        fresh.push_back(pool.size());
        pool.push_back(std::move(child));
      }
      if (parent.age < params_.kappa) pool.push_back(parent);
    }
    if (pool.empty()) break;  // all parents expired with no children

    // Worker phase: evaluate the generation's descendants concurrently.
    support::parallel_for_indexed(request_->pool, fresh.size(),
                                  [&pool, &fresh](std::size_t i) {
                                    Individual& child = pool[fresh[i]];
                                    child.fitness = child.eval.fitness();
                                  });

    std::sort(pool.begin(), pool.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
              });
    const std::size_t survivors = std::min(params_.mu, pool.size());
    parents.assign(std::make_move_iterator(pool.begin()),
                   std::make_move_iterator(pool.begin() + survivors));

    const bool improved = parents.front().fitness < best.fitness;
    if (improved) {
      best = parents.front();
      stall = 0;
    } else {
      ++stall;
    }
    result.iterations = gen + 1;

    if (request_->record_trace || request_->on_progress) {
      GenerationStats stats;
      stats.generation = gen + 1;
      stats.best = best.fitness;
      double sum = 0.0;
      for (const auto& p : parents) sum += p.fitness.cost;
      stats.mean_cost = sum / static_cast<double>(parents.size());
      stats.module_count = best.eval.partition().module_count();
      stats.best_step_width = parents.front().step_width;
      stats.evaluations = result.evaluations;
      request_->report(result.method, stats.generation, stats.evaluations,
                       stats.best);
      if (request_->record_trace) result.trace.push_back(stats);
    }
    if (stall >= params_.stall_generations) break;
  }

  result.partition = best.eval.partition();
  result.fitness = best.fitness;
  result.costs = best.eval.costs();
  return result;
}

}  // namespace

OptimizerOutcome run_evolution(const OptimizerRequest& request,
                               const EsParams& params) {
  EvolutionEngine engine(request, params);
  if (request.start) return engine.run({&*request.start, 1});
  return engine.run_with_module_count(request.resolved_module_count());
}

}  // namespace iddq::core
