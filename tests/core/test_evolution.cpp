#include "core/evolution.hpp"

#include <gtest/gtest.h>

#include "core/neighborhood.hpp"
#include "core/start_partition.hpp"
#include "netlist/gen/c17.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("evo", 200, 12, 7));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};

  EsParams quick_params() const {
    EsParams p;
    p.mu = 4;
    p.lambda = 4;
    p.chi = 1;
    p.max_generations = 30;
    p.stall_generations = 30;
    return p;
  }

  OptimizerRequest request(std::size_t module_count = 3) const {
    OptimizerRequest r;
    r.ctx = &ctx;
    r.module_count = module_count;
    r.seed = 3;
    return r;
  }
};

TEST(Evolution, BoundaryGatesAreExactlyTheCut) {
  const auto nl = netlist::gen::make_c17();
  const auto library = lib::default_library();
  const part::EvalContext ctx(nl, library, elec::SensorSpec{},
                              part::CostWeights{});
  const auto p = part::Partition::from_groups(
      nl, std::vector<std::vector<netlist::GateId>>{
              {nl.at("10"), nl.at("16"), nl.at("22")},
              {nl.at("11"), nl.at("19"), nl.at("23")}});
  part::PartitionEvaluator eval(ctx, p);
  // Module 0: 10 -(22)- internal; 16 fed by 11 (module 1) -> boundary;
  // 22 fed by 16? both module 0... 22's fanins 10,16 internal, no external
  // fanout. 10: fanin inputs only, fanout 22 internal -> interior.
  const auto boundary0 = boundary_gates(eval, 0);
  ASSERT_EQ(boundary0.size(), 1u);
  EXPECT_EQ(boundary0[0], nl.at("16"));
  // Module 1: 11 feeds 16 (module 0) -> boundary; 19 fed by 11 internal,
  // feeds 23 internal -> interior; 23 fed by 16 (module 0) -> boundary.
  const auto boundary1 = boundary_gates(eval, 1);
  EXPECT_EQ(boundary1.size(), 2u);
}

TEST(Evolution, ImprovesOverStartPartitions) {
  Fixture f;
  Rng rng(1);
  auto request = f.request();
  request.start = make_start_partition(f.nl, 3, rng);
  part::PartitionEvaluator start_eval(f.ctx, *request.start);
  const double start_cost = start_eval.fitness().cost;

  const auto result = run_evolution(request, f.quick_params());
  EXPECT_TRUE(result.fitness.feasible());
  EXPECT_LT(result.fitness.cost, start_cost);
  EXPECT_GT(result.evaluations, 4u);
}

TEST(Evolution, DeterministicForSeed) {
  Fixture f;
  const auto ra = run_evolution(f.request(), f.quick_params());
  const auto rb = run_evolution(f.request(), f.quick_params());
  EXPECT_EQ(ra.fitness.cost, rb.fitness.cost);
  EXPECT_EQ(ra.partition, rb.partition);
  EXPECT_EQ(ra.evaluations, rb.evaluations);
}

TEST(Evolution, OnGenerationTicksLiveWithoutChangingTheRun) {
  Fixture f;
  const auto expected = run_evolution(f.request(), f.quick_params());

  auto request = f.request();
  std::size_t ticks = 0;
  std::size_t last_generation = 0;
  std::size_t last_evaluations = 0;
  part::Fitness last_best;
  request.on_progress = [&](const OptimizerProgress& g) {
    ++ticks;
    EXPECT_EQ(g.iteration, last_generation + 1);  // every generation, in order
    EXPECT_GT(g.evaluations, last_evaluations);   // cumulative counter
    last_generation = g.iteration;
    last_evaluations = g.evaluations;
    last_best = g.best;
  };
  const auto result = run_evolution(request, f.quick_params());

  // The observer saw every generation once — the last tick carries the
  // outcome's totals — and never perturbed the search.
  EXPECT_EQ(ticks, result.iterations);
  EXPECT_EQ(last_generation, result.iterations);
  EXPECT_EQ(last_evaluations, result.evaluations);
  EXPECT_EQ(last_best.cost, result.fitness.cost);
  EXPECT_EQ(result.partition, expected.partition);
  EXPECT_EQ(result.fitness.cost, expected.fitness.cost);
  EXPECT_EQ(result.evaluations, expected.evaluations);
  // The callback alone does not record a trace.
  EXPECT_TRUE(result.trace.empty());
}

TEST(Evolution, BestPartitionCoversCircuit) {
  Fixture f;
  const auto result = run_evolution(f.request(), f.quick_params());
  EXPECT_TRUE(result.partition.covers(f.nl));
}

TEST(Evolution, ResultCostsMatchReEvaluation) {
  Fixture f;
  const auto result = run_evolution(f.request(), f.quick_params());
  part::PartitionEvaluator check(f.ctx, result.partition);
  EXPECT_NEAR(check.fitness().cost, result.fitness.cost,
              1e-9 * result.fitness.cost);
}

TEST(Evolution, TraceIsMonotoneNonIncreasing) {
  Fixture f;
  auto request = f.request();
  request.record_trace = true;
  const auto result = run_evolution(request, f.quick_params());
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t i = 1; i < result.trace.size(); ++i)
    EXPECT_LE(result.trace[i].best.cost, result.trace[i - 1].best.cost);
}

TEST(Evolution, StallStopsEarly) {
  Fixture f;
  auto params = f.quick_params();
  params.max_generations = 1000;
  params.stall_generations = 5;
  const auto result = run_evolution(f.request(), params);
  EXPECT_LT(result.iterations, 1000u);
}

TEST(Evolution, MonteCarloChildrenCanReduceModuleCount) {
  // With many small start modules and room to merge, the MC moves that
  // empty a module must sometimes fire; K at the optimum is <= start K.
  Fixture f;
  auto params = f.quick_params();
  params.max_generations = 60;
  const auto result = run_evolution(f.request(6), params);
  EXPECT_LE(result.partition.module_count(), 6u);
  EXPECT_GE(result.partition.module_count(), 1u);
}

TEST(Evolution, InfeasibleStartRecovers) {
  // Start with K=1 on a circuit whose leakage demands several modules: the
  // lexicographic selection must drive the violation to zero...  K can only
  // shrink through MC deletion, so instead start with many modules but a
  // deliberately terrible (random scatter) assignment.
  const auto nl = netlist::gen::make_iscas_like("c1908");
  const auto library = lib::default_library();
  const part::EvalContext ctx(nl, library, elec::SensorSpec{},
                              part::CostWeights{});
  Rng rng(17);
  // Random scatter over 2 modules (feasible count for c1908).
  std::vector<std::vector<netlist::GateId>> groups(2);
  for (const auto g : nl.logic_gates()) groups[rng.index(2)].push_back(g);
  EsParams params;
  params.mu = 4;
  params.lambda = 4;
  params.chi = 1;
  params.max_generations = 25;
  params.stall_generations = 25;
  OptimizerRequest request;
  request.ctx = &ctx;
  request.start = part::Partition::from_groups(nl, groups);
  request.seed = 5;
  const auto result = run_evolution(request, params);
  EXPECT_TRUE(result.fitness.feasible());
}

TEST(Evolution, ParameterValidation) {
  Fixture f;
  EsParams params = f.quick_params();
  params.mu = 0;
  EXPECT_THROW((void)run_evolution(f.request(), params), Error);
  params = f.quick_params();
  params.lambda = 0;
  params.chi = 0;
  EXPECT_THROW((void)run_evolution(f.request(), params), Error);
  params = f.quick_params();
  params.m0 = 100;
  params.m_max = 50;
  EXPECT_THROW((void)run_evolution(f.request(), params), Error);
}

TEST(Evolution, RunRequiresAContext) {
  Fixture f;
  auto request = f.request();
  request.ctx = nullptr;
  EXPECT_THROW((void)run_evolution(request, f.quick_params()), Error);
}

}  // namespace
}  // namespace iddq::core
