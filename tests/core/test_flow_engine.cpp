#include "core/flow_engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/result_cache.hpp"
#include "core/start_partition.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("engine", 260, 12, 11));
  lib::CellLibrary library = lib::default_library();

  FlowEngineConfig config() const {
    FlowEngineConfig cfg;
    cfg.optimizers.es.mu = 3;
    cfg.optimizers.es.lambda = 3;
    cfg.optimizers.es.chi = 1;
    cfg.optimizers.es.max_generations = 12;
    cfg.optimizers.es.stall_generations = 6;
    cfg.optimizers.random_samples = 40;
    return cfg;
  }
};

TEST(FlowEngine, RunMethodsReturnsOneResultPerSpecInOrder) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  const std::vector<std::string> specs{"evolution", "annealing", "random",
                                       "standard"};
  const auto results = engine.run_methods(specs, 42);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].method, specs[i]);
    EXPECT_TRUE(results[i].partition.covers(f.nl));
    EXPECT_GT(results[i].evaluations, 0u);
    EXPECT_EQ(results[i].modules.size(), results[i].module_count);
  }
}

TEST(FlowEngine, StandardAfterAnotherMethodReusesItsModuleSizes) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  const std::vector<std::string> specs{"evolution", "standard"};
  const auto results = engine.run_methods(specs, 42);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].module_count, results[1].module_count);
  for (std::uint32_t m = 0; m < results[0].module_count; ++m)
    EXPECT_EQ(results[0].partition.module_size(m),
              results[1].partition.module_size(m));
}

TEST(FlowEngine, StandardAloneUsesEvenSplitOfThePlannedCount) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  FlowEngine::RunOptions opts;
  const auto result = engine.run_method("standard", opts);
  EXPECT_EQ(result.module_count, engine.plan().module_count);
  std::size_t lo = f.nl.logic_gate_count();
  std::size_t hi = 0;
  for (std::uint32_t m = 0; m < result.module_count; ++m) {
    lo = std::min(lo, result.partition.module_size(m));
    hi = std::max(hi, result.partition.module_size(m));
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(FlowEngine, RecordTraceIsPerRun) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  FlowEngine::RunOptions plain;
  EXPECT_TRUE(engine.run_method("evolution", plain).trace.empty());
  FlowEngine::RunOptions traced;
  traced.record_trace = true;
  EXPECT_FALSE(engine.run_method("evolution", traced).trace.empty());
}

TEST(FlowEngine, ProgressCallbackFires) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  std::size_t calls = 0;
  FlowEngine::RunOptions opts;
  opts.on_progress = [&](const OptimizerProgress&) { ++calls; };
  (void)engine.run_method("random", opts);
  EXPECT_GE(calls, 1u);
}

TEST(FlowEngineCoverage, RowsGainCoverageFieldsOnlyWhenEnabled) {
  Fixture f;
  FlowEngine plain(f.nl, f.library, f.config());
  FlowEngine::RunOptions opts;
  const auto off = plain.run_method("standard", opts);
  EXPECT_FALSE(off.has_coverage);
  EXPECT_EQ(off.faults_total, 0u);

  auto cfg = f.config();
  cfg.coverage.enabled = true;
  cfg.coverage.patterns = 64;
  FlowEngine graded(f.nl, f.library, cfg);
  const auto on = graded.run_method("standard", opts);
  EXPECT_TRUE(on.has_coverage);
  EXPECT_GT(on.faults_total, 0u);
  EXPECT_LE(on.faults_detected, on.faults_total);
  EXPECT_EQ(on.patterns_used, 64u);
  EXPECT_EQ(on.patterns_minimized, 64u);  // minimize off
  // Coverage is a grade, not an objective: the partition itself must be
  // untouched by grading.
  EXPECT_EQ(on.fitness.cost, off.fitness.cost);
  EXPECT_EQ(on.module_count, off.module_count);
}

TEST(FlowEngineCoverage, RowsByteIdenticalAcrossPoolSizes) {
  Fixture f;
  auto cfg = f.config();
  cfg.coverage.enabled = true;
  cfg.coverage.patterns = 64;
  cfg.coverage.minimize = true;

  const std::vector<std::string> specs{"evolution", "standard"};
  FlowEngine serial(f.nl, f.library, cfg);
  const auto base = serial.run_methods(specs, 42);
  for (const std::size_t threads : {2u, 8u}) {
    support::ExecutorPool pool(threads);
    auto pooled_cfg = cfg;
    pooled_cfg.pool = &pool;
    FlowEngine engine(f.nl, f.library, pooled_cfg);
    const auto rows = engine.run_methods(specs, 42);
    ASSERT_EQ(rows.size(), base.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].fitness.cost, base[i].fitness.cost);
      EXPECT_EQ(rows[i].fault_coverage_pct, base[i].fault_coverage_pct);
      EXPECT_EQ(rows[i].faults_detected, base[i].faults_detected);
      EXPECT_EQ(rows[i].faults_total, base[i].faults_total);
      EXPECT_EQ(rows[i].patterns_minimized, base[i].patterns_minimized);
    }
  }
}

TEST(FlowEngineCoverage, CacheReplayReproducesCoverageBitExactly) {
  Fixture f;
  auto cfg = f.config();
  cfg.coverage.enabled = true;
  cfg.coverage.patterns = 64;
  cfg.coverage.minimize = true;

  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "flow_engine_cov_cache")
          .string();
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);
  cfg.cache = &cache;

  FlowEngine::RunOptions opts;
  opts.seed = 42;
  MethodResult fresh;
  {
    FlowEngine engine(f.nl, f.library, cfg);
    fresh = engine.run_method("evolution", opts);
  }
  EXPECT_EQ(cache.misses(), 1u);

  ResultCache reopened(dir);
  auto replay_cfg = cfg;
  replay_cfg.cache = &reopened;
  FlowEngine engine(f.nl, f.library, replay_cfg);
  const auto replayed = engine.run_method("evolution", opts);
  EXPECT_EQ(reopened.hits(), 1u);
  EXPECT_TRUE(replayed.has_coverage);
  EXPECT_EQ(replayed.fault_coverage_pct, fresh.fault_coverage_pct);
  EXPECT_EQ(replayed.faults_detected, fresh.faults_detected);
  EXPECT_EQ(replayed.faults_total, fresh.faults_total);
  EXPECT_EQ(replayed.patterns_used, fresh.patterns_used);
  EXPECT_EQ(replayed.patterns_minimized, fresh.patterns_minimized);
  EXPECT_EQ(replayed.fitness.cost, fresh.fitness.cost);
}

TEST(FlowEngineCoverage, CoverageOptionsChangeTheCacheKey) {
  // A coverage-graded row must never replay a plain row (or vice versa),
  // and different fault models must not share entries.
  Fixture f;
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "flow_engine_cov_salt")
          .string();
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);

  auto run_once = [&](bool enabled, const std::string& model) {
    auto cfg = f.config();
    cfg.cache = &cache;
    cfg.coverage.enabled = enabled;
    cfg.coverage.fault_model = model;
    FlowEngine engine(f.nl, f.library, cfg);
    FlowEngine::RunOptions opts;
    opts.seed = 42;
    return engine.run_method("standard", opts);
  };
  (void)run_once(false, "mixed");
  (void)run_once(true, "mixed");
  (void)run_once(true, "bridges");
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 3u);
  // Same options again: now it replays.
  const auto replay = run_once(true, "bridges");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_TRUE(replay.has_coverage);
}

TEST(StandardAreaOverhead, DegenerateZeroAreaReportsZero) {
  MethodResult evolution;
  MethodResult standard;
  evolution.sensor_area = 0.0;  // e.g. single-module degenerate plan
  standard.sensor_area = 5.0;
  EXPECT_EQ(standard_area_overhead_pct(evolution, standard), 0.0);
}

TEST(StandardAreaOverhead, NormalCaseMatchesFormula) {
  MethodResult evolution;
  MethodResult standard;
  evolution.sensor_area = 4.0;
  standard.sensor_area = 5.0;
  EXPECT_DOUBLE_EQ(standard_area_overhead_pct(evolution, standard), 25.0);
}

// The Table-1 flow: evolution at the seed, then the standard baseline at
// the module sizes the ES found (paper section 5).
struct FlowRows {
  SizePlan plan;
  MethodResult evolution;
  MethodResult standard;
};

FlowEngineConfig quick_flow_config() {
  FlowEngineConfig cfg;
  cfg.optimizers.es.mu = 4;
  cfg.optimizers.es.lambda = 4;
  cfg.optimizers.es.chi = 1;
  cfg.optimizers.es.max_generations = 40;
  cfg.optimizers.es.stall_generations = 15;
  return cfg;
}

FlowRows run_table1_pair(const netlist::Netlist& nl,
                         const lib::CellLibrary& library,
                         const FlowEngineConfig& config) {
  FlowEngine engine(nl, library, config);
  FlowEngine::RunOptions options;
  options.seed = 42;
  FlowRows rows{engine.plan(), engine.run_method("evolution", options), {}};
  options.start = &rows.evolution.partition;
  rows.standard = engine.run_method("standard", options);
  return rows;
}

TEST(Flow, EndToEndOnMidSizeCircuit) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("flow", 600, 18, 3));
  const auto library = lib::default_library();
  const auto result = run_table1_pair(nl, library, quick_flow_config());

  EXPECT_GE(result.plan.module_count, result.plan.k_min_leakage);
  EXPECT_TRUE(result.evolution.fitness.feasible());
  EXPECT_TRUE(result.evolution.partition.covers(nl));
  EXPECT_TRUE(result.standard.partition.covers(nl));
  EXPECT_GT(result.evolution.sensor_area, 0.0);
  EXPECT_GT(result.standard.sensor_area, 0.0);
  EXPECT_EQ(result.evolution.modules.size(), result.evolution.module_count);
}

TEST(Flow, StandardUsesEvolutionModuleSizes) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("flow", 500, 16, 4));
  const auto library = lib::default_library();
  const auto result = run_table1_pair(nl, library, quick_flow_config());
  ASSERT_EQ(result.standard.module_count, result.evolution.module_count);
  std::vector<std::size_t> evo_sizes;
  std::vector<std::size_t> std_sizes;
  for (std::uint32_t m = 0; m < result.evolution.module_count; ++m) {
    evo_sizes.push_back(result.evolution.partition.module_size(m));
    std_sizes.push_back(result.standard.partition.module_size(m));
  }
  EXPECT_EQ(evo_sizes, std_sizes);
}

TEST(Flow, EvolutionNoWorseThanStandardOnObjective) {
  const auto nl = netlist::gen::make_iscas_like("c1908");
  const auto library = lib::default_library();
  auto cfg = quick_flow_config();
  cfg.optimizers.es.max_generations = 80;
  const auto result = run_table1_pair(nl, library, cfg);
  EXPECT_FALSE(result.standard.fitness < result.evolution.fitness);
}

TEST(Flow, AreaOverheadMetric) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("flow", 400, 14, 5));
  const auto library = lib::default_library();
  const auto result = run_table1_pair(nl, library, quick_flow_config());
  const double expected =
      (result.standard.sensor_area / result.evolution.sensor_area - 1.0) *
      100.0;
  EXPECT_DOUBLE_EQ(
      standard_area_overhead_pct(result.evolution, result.standard),
      expected);
}

TEST(Flow, EvaluateMethodReportsConsistentNumbers) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("flow", 200, 10, 7));
  const auto library = lib::default_library();
  const FlowEngineConfig cfg = quick_flow_config();
  part::EvalContext ctx(nl, library, cfg.sensor, cfg.weights, cfg.rho);
  Rng rng(1);
  const auto p = make_start_partition(nl, 2, rng);
  const auto r = evaluate_method(ctx, "probe", p);
  EXPECT_EQ(r.method, "probe");
  EXPECT_EQ(r.module_count, 2u);
  EXPECT_DOUBLE_EQ(r.delay_overhead, r.costs.c2);
  EXPECT_DOUBLE_EQ(r.test_overhead, r.costs.c4);
  double area = 0.0;
  for (const auto& m : r.modules) area += m.area;
  EXPECT_NEAR(area, r.sensor_area, 1e-9 * area);
}

}  // namespace
}  // namespace iddq::core
