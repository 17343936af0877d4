#include "core/random_search.hpp"

#include <gtest/gtest.h>

#include "core/start_partition.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("rs", 150, 10, 8));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};

  OptimizerRequest request(std::uint64_t seed) const {
    OptimizerRequest r;
    r.ctx = &ctx;
    r.module_count = 3;
    r.seed = seed;
    return r;
  }
};

TEST(RandomSearch, BestOfManyBeatsFirst) {
  Fixture f;
  Rng rng(1);
  part::PartitionEvaluator first(f.ctx, make_start_partition(f.nl, 3, rng));
  const auto result = run_random(f.request(1), 40);
  EXPECT_EQ(result.evaluations, 40u);
  EXPECT_LE(result.fitness.cost, first.fitness().cost);
}

TEST(RandomSearch, SingleSampleIsValid) {
  Fixture f;
  const auto result = run_random(f.request(2), 1);
  EXPECT_EQ(result.evaluations, 1u);
  EXPECT_TRUE(result.partition.covers(f.nl));
}

TEST(RandomSearch, Deterministic) {
  Fixture f;
  const auto a = run_random(f.request(7), 10);
  const auto b = run_random(f.request(7), 10);
  EXPECT_EQ(a.fitness.cost, b.fitness.cost);
}

TEST(RandomSearch, MoreSamplesNeverWorse) {
  Fixture f;
  const auto few = run_random(f.request(9), 5);
  const auto many = run_random(f.request(9), 50);
  EXPECT_LE(many.fitness.cost, few.fitness.cost);
}

TEST(RandomSearch, BudgetReplacesSamples) {
  Fixture f;
  auto request = f.request(9);
  request.max_evaluations = 12;
  EXPECT_EQ(run_random(request, 2000).evaluations, 12u);
}

TEST(RandomSearch, RejectsZeroSamples) {
  Fixture f;
  EXPECT_THROW((void)run_random(f.request(1), 0), Error);
}

}  // namespace
}  // namespace iddq::core
