#include "core/annealing.hpp"

#include <gtest/gtest.h>

#include "core/start_partition.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("sa", 180, 12, 4));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};

  part::Partition start() {
    Rng rng(2);
    return make_start_partition(nl, 3, rng);
  }

  OptimizerRequest request(std::uint64_t seed) {
    OptimizerRequest r;
    r.ctx = &ctx;
    r.start = start();
    r.seed = seed;
    return r;
  }
};

SaParams with_steps(std::size_t steps) {
  SaParams params;
  params.steps = steps;
  return params;
}

TEST(Annealing, ImprovesOverStart) {
  Fixture f;
  part::PartitionEvaluator start_eval(f.ctx, f.start());
  const double start_cost = start_eval.fitness().cost;
  const auto result = run_annealing(f.request(7), with_steps(3000));
  EXPECT_LT(result.fitness.cost, start_cost);
  EXPECT_EQ(result.method, "annealing");
}

TEST(Annealing, KeepsModuleCountFixed) {
  Fixture f;
  const auto result = run_annealing(f.request(3), with_steps(2000));
  EXPECT_EQ(result.partition.module_count(), 3u);
  EXPECT_TRUE(result.partition.covers(f.nl));
}

TEST(Annealing, DeterministicForSeed) {
  Fixture f;
  const auto a = run_annealing(f.request(11), with_steps(1500));
  const auto b = run_annealing(f.request(11), with_steps(1500));
  EXPECT_EQ(a.fitness.cost, b.fitness.cost);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Annealing, OnStepTicksLiveWithoutChangingTheRun) {
  Fixture f;
  const SaParams params = with_steps(2500);
  const auto expected = run_annealing(f.request(5), params);

  auto request = f.request(5);
  std::size_t ticks = 0;
  std::size_t last_step = 0;
  request.on_progress = [&](const OptimizerProgress& p) {
    ++ticks;
    EXPECT_EQ(p.method, "annealing");
    EXPECT_GT(p.iteration, last_step);
    EXPECT_GT(p.evaluations, 0u);
    EXPECT_LE(p.best.cost, 1e12);
    last_step = p.iteration;
  };
  const auto observed = run_annealing(request, params);

  // Live ticks at steps 1000 and 2000, then the final report.
  EXPECT_EQ(ticks, (params.steps - 1) / kAnnealingProgressEvery + 1);
  EXPECT_EQ(last_step, observed.iterations);
  EXPECT_EQ(observed.fitness.cost, expected.fitness.cost);
  EXPECT_EQ(observed.partition, expected.partition);
  EXPECT_EQ(observed.evaluations, expected.evaluations);
}

TEST(Annealing, BestCostsMatchReEvaluation) {
  Fixture f;
  const auto result = run_annealing(f.request(5), with_steps(1000));
  part::PartitionEvaluator check(f.ctx, result.partition);
  EXPECT_NEAR(check.fitness().cost, result.fitness.cost,
              1e-9 * result.fitness.cost);
}

TEST(Annealing, RejectsBadParams) {
  Fixture f;
  EXPECT_THROW((void)run_annealing(f.request(1), with_steps(0)), Error);
  SaParams params;
  params.cooling = 1.5;
  EXPECT_THROW((void)run_annealing(f.request(1), params), Error);
}

}  // namespace
}  // namespace iddq::core
