// Equivalences the method table promises: a request budget replaces a
// method's configured one, a '+' pipeline equals manual chaining and shares
// the budget, and FlowEngine rows equal a direct entry-point call. The
// per-method trajectories themselves are pinned by test_method_golden.cpp.
#include <gtest/gtest.h>

#include "core/annealing.hpp"
#include "core/evolution.hpp"
#include "core/flow_engine.hpp"
#include "core/optimizer_registry.hpp"
#include "core/start_partition.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("equiv", 220, 12, 9));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};
  static constexpr std::size_t kModules = 3;
  static constexpr std::uint64_t kSeed = 7;

  part::Partition start() const {
    Rng rng(2);
    return make_start_partition(nl, kModules, rng);
  }

  OptimizerRequest request() const {
    OptimizerRequest req;
    req.ctx = &ctx;
    req.module_count = kModules;
    req.seed = kSeed;
    return req;
  }
};

TEST(OptimizerEquivalence, AnnealingBudgetOverridesSteps) {
  Fixture f;
  auto req = f.request();
  req.start = f.start();
  SaParams params;
  params.steps = 600;
  const auto configured = run_annealing(req, params);

  OptimizerConfig cfg;
  cfg.sa.steps = 123456;  // must be overridden by the request budget
  req.max_evaluations = 600;
  const auto budgeted =
      OptimizerRegistry::global().make("annealing", cfg)->run(req);
  EXPECT_EQ(budgeted.partition, configured.partition);
  EXPECT_EQ(budgeted.fitness.violation, configured.fitness.violation);
  EXPECT_EQ(budgeted.fitness.cost, configured.fitness.cost);
  EXPECT_EQ(budgeted.evaluations, configured.evaluations);
}

TEST(OptimizerEquivalence, ComposedPipelineMatchesManualChaining) {
  Fixture f;
  EsParams params;
  params.mu = 3;
  params.lambda = 3;
  params.chi = 1;
  params.max_generations = 15;
  params.stall_generations = 8;
  OptimizerConfig cfg;
  cfg.es = params;

  auto& reg = OptimizerRegistry::global();
  const auto es_out = reg.make("evolution", cfg)->run(f.request());
  auto polish_req = f.request();
  polish_req.start = es_out.partition;
  const auto greedy_out = reg.make("greedy", cfg)->run(polish_req);

  const auto composed = reg.make("evolution+greedy", cfg)->run(f.request());
  EXPECT_EQ(composed.method, "evolution+greedy");
  EXPECT_EQ(composed.partition, greedy_out.partition);
  EXPECT_EQ(composed.fitness.cost, greedy_out.fitness.cost);
  EXPECT_EQ(composed.evaluations,
            es_out.evaluations + greedy_out.evaluations);
}

TEST(OptimizerEquivalence, ComposedPipelineSharesTheRequestBudget) {
  Fixture f;
  auto req = f.request();
  req.start = f.start();
  req.max_evaluations = 500;
  const auto out =
      OptimizerRegistry::global().make("annealing+greedy")->run(req);
  // Annealing consumes (about) the whole budget; greedy must not add its
  // 100000-evaluation default on top.
  EXPECT_LE(out.evaluations, 520u);
}

TEST(OptimizerEquivalence, ComposedPipelineKeepsBestStageResult) {
  Fixture f;
  OptimizerConfig cfg;
  cfg.random_samples = 10;  // a weak polish stage that ignores its start
  auto req = f.request();
  req.start = f.start();
  auto& reg = OptimizerRegistry::global();
  const auto greedy = reg.make("greedy", cfg)->run(req);
  const auto composed = reg.make("greedy+random", cfg)->run(req);
  EXPECT_FALSE(greedy.fitness < composed.fitness);
}

// The engine's seed-s evolution run (the Table-1 row) must equal a direct
// run_evolution call at the planned module count.
TEST(OptimizerEquivalence, RunFlowMatchesDirectEvolution) {
  Fixture f;
  FlowEngineConfig config;
  config.optimizers.es.mu = 4;
  config.optimizers.es.lambda = 4;
  config.optimizers.es.chi = 1;
  config.optimizers.es.max_generations = 25;
  config.optimizers.es.stall_generations = 10;
  FlowEngine flow(f.nl, f.library, config);
  FlowEngine::RunOptions options;
  options.seed = Fixture::kSeed;
  const auto evolution = flow.run_method("evolution", options);

  part::EvalContext ctx(f.nl, f.library, config.sensor, config.weights,
                        config.rho);
  OptimizerRequest request;
  request.ctx = &ctx;
  request.module_count = flow.plan().module_count;
  request.seed = Fixture::kSeed;
  const auto direct = run_evolution(request, config.optimizers.es);
  EXPECT_EQ(evolution.partition, direct.partition);
  EXPECT_EQ(evolution.fitness.cost, direct.fitness.cost);
  EXPECT_EQ(evolution.evaluations, direct.evaluations);
  EXPECT_EQ(evolution.iterations, direct.iterations);
}

}  // namespace
}  // namespace iddq::core
