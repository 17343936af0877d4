#include "core/resynth.hpp"

#include <gtest/gtest.h>

#include "estimators/current_profile.hpp"
#include "netlist/builder.hpp"
#include "partition/evaluator.hpp"
#include "netlist/gen/array_cut.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "sim/logic_sim.hpp"
#include "sim/patterns.hpp"
#include "support/error.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("rt", 400, 14, 11));
  lib::CellLibrary library = lib::default_library();
};

std::vector<std::vector<netlist::GateId>> split_groups(
    const netlist::Netlist& nl, std::size_t k) {
  std::vector<std::vector<netlist::GateId>> groups(k);
  std::size_t i = 0;
  for (const auto g : nl.logic_gates()) groups[i++ % k].push_back(g);
  return groups;
}

// The Resynth.* tests run the pass with one group holding every logic gate:
// the whole circuit on one sensor, where the sum of module peaks is the
// circuit's own peak.

TEST(Resynth, ReducesPeakCurrent) {
  Fixture f;
  ResynthOptions opts;
  opts.max_retimed_gates = 40;
  const auto result = retime_for_iddq_partitioned(
      f.nl, f.library, split_groups(f.nl, 1), opts);
  EXPECT_GT(result.retimed_gates, 0u);
  EXPECT_LT(result.sum_peak_after_ua, result.sum_peak_before_ua);
  EXPECT_GT(result.sum_peak_reduction(), 0.0);
}

TEST(Resynth, PreservesCriticalPathWithZeroMargin) {
  Fixture f;
  ResynthOptions opts;
  opts.max_retimed_gates = 40;
  opts.delay_margin = 0.0;
  const auto result = retime_for_iddq_partitioned(
      f.nl, f.library, split_groups(f.nl, 1), opts);
  EXPECT_NEAR(result.delay_after_ps, result.delay_before_ps,
              1e-6 * result.delay_before_ps);
}

TEST(Resynth, PreservesLogicFunction) {
  Fixture f;
  const auto result =
      retime_for_iddq_partitioned(f.nl, f.library, split_groups(f.nl, 1));
  ASSERT_GT(result.retimed_gates, 0u);
  const sim::LogicSim sim_before(f.nl);
  const sim::LogicSim sim_after(result.netlist);
  Rng rng(3);
  const auto patterns = sim::random_patterns(f.nl, 128, rng);
  for (const auto& batch : patterns) {
    const auto before = sim_before.run(batch.words);
    const auto after = sim_after.run(batch.words);
    for (const auto po : f.nl.primary_outputs()) {
      const auto po_after = result.netlist.at(f.nl.gate(po).name);
      ASSERT_EQ(before[po], after[po_after])
          << "output " << f.nl.gate(po).name << " diverged";
    }
  }
}

TEST(PartitionedResynth, ReducesSumOfModulePeaks) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  ResynthOptions opts;
  opts.max_retimed_gates = 60;
  const auto result =
      retime_for_iddq_partitioned(f.nl, f.library, groups, opts);
  EXPECT_GT(result.retimed_gates, 0u);
  EXPECT_LT(result.sum_peak_after_ua, result.sum_peak_before_ua);
  EXPECT_GT(result.sum_peak_reduction(), 0.0);
}

TEST(PartitionedResynth, ExtendedGroupsCoverRebuiltNetlist) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  const auto result = retime_for_iddq_partitioned(f.nl, f.library, groups);
  const auto p = part::Partition::from_groups(result.netlist, result.groups);
  EXPECT_TRUE(p.covers(result.netlist));
  EXPECT_EQ(p.module_count(), 3u);
}

TEST(PartitionedResynth, PreservesLogicFunction) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  const auto result = retime_for_iddq_partitioned(f.nl, f.library, groups);
  ASSERT_GT(result.retimed_gates, 0u);
  const sim::LogicSim sim_before(f.nl);
  const sim::LogicSim sim_after(result.netlist);
  Rng rng(9);
  const auto patterns = sim::random_patterns(f.nl, 128, rng);
  for (const auto& batch : patterns) {
    const auto before = sim_before.run(batch.words);
    const auto after = sim_after.run(batch.words);
    for (const auto po : f.nl.primary_outputs())
      ASSERT_EQ(before[po], after[result.netlist.at(f.nl.gate(po).name)])
          << "output " << f.nl.gate(po).name << " diverged";
  }
}

double sum_of_module_peaks(
    const netlist::Netlist& nl, const lib::CellLibrary& library,
    const std::vector<std::vector<netlist::GateId>>& groups, double bin_ps) {
  const auto cells = lib::bind_cells(nl, library);
  const est::TransitionTimes tt(nl, cells, bin_ps);
  double sum = 0.0;
  for (const auto& group : groups)
    sum += est::profile_of(tt, cells, group).max_current_ua();
  return sum;
}

TEST(PartitionedResynth, ReportedSumOfPeaksMatchesRebuiltCircuit) {
  // The virtual model (buffers included, each on its sink's rail) must
  // claim exactly what the physically rebuilt netlist draws per module on
  // the same grid, up to summation order.
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  ResynthOptions opts;
  opts.max_retimed_gates = 20;
  const auto result =
      retime_for_iddq_partitioned(f.nl, f.library, groups, opts);
  ASSERT_GT(result.retimed_gates, 0u);
  EXPECT_NEAR(sum_of_module_peaks(f.nl, f.library, groups, opts.grid_bin_ps),
              result.sum_peak_before_ua, 1e-9 * result.sum_peak_before_ua);
  EXPECT_NEAR(sum_of_module_peaks(result.netlist, f.library, result.groups,
                                  opts.grid_bin_ps),
              result.sum_peak_after_ua, 1e-9 * result.sum_peak_after_ua);
}

TEST(PartitionedResynth, BufferCountMatchesRetimedFanins) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  const auto result = retime_for_iddq_partitioned(f.nl, f.library, groups);
  ASSERT_GT(result.retimed_gates, 0u);
  // Every added buffer appears in the rebuilt netlist ...
  EXPECT_EQ(result.netlist.logic_gate_count(),
            f.nl.logic_gate_count() + result.buffers_added);
  // ... as a chain on a fan-in edge of a retimed gate, equally deep on
  // every edge of that gate (the whole transition set shifts).
  std::size_t chained = 0;
  for (const auto g : f.nl.logic_gates()) {
    const auto& gate = f.nl.gate(g);
    const auto& rebuilt = result.netlist.gate(result.netlist.at(gate.name));
    ASSERT_EQ(rebuilt.fanins.size(), gate.fanins.size());
    std::size_t depth = 0;
    for (std::size_t i = 0; i < rebuilt.fanins.size(); ++i) {
      std::size_t chain = 0;
      for (auto src = rebuilt.fanins[i];
           result.netlist.gate(src).name.starts_with(gate.name + "_prt");
           src = result.netlist.gate(src).fanins.front())
        ++chain;
      if (i == 0) depth = chain;
      EXPECT_EQ(chain, depth) << gate.name;
      chained += chain;
    }
  }
  EXPECT_EQ(chained, result.buffers_added);
}

TEST(PartitionedResynth, RespectsBudget) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  ResynthOptions opts;
  opts.max_retimed_gates = 3;
  const auto result =
      retime_for_iddq_partitioned(f.nl, f.library, groups, opts);
  EXPECT_GT(result.retimed_gates, 0u);
  EXPECT_LE(result.retimed_gates, 3u);
}

TEST(PartitionedResynth, NoOpWhenEverythingIsCritical) {
  // A single chain has zero slack everywhere: nothing may be retimed.
  netlist::NetlistBuilder b("chain");
  auto prev = b.add_input("a");
  for (int i = 0; i < 6; ++i)
    prev = b.add_gate(netlist::GateKind::kNot, "n" + std::to_string(i),
                      {prev});
  b.mark_output(prev);
  const auto nl = std::move(b).build();
  const std::vector<std::vector<netlist::GateId>> groups{
      {nl.logic_gates().begin(), nl.logic_gates().end()}};
  const auto result =
      retime_for_iddq_partitioned(nl, lib::default_library(), groups);
  EXPECT_EQ(result.retimed_gates, 0u);
  EXPECT_EQ(result.buffers_added, 0u);
  EXPECT_EQ(result.netlist.logic_gate_count(), nl.logic_gate_count());
  EXPECT_DOUBLE_EQ(result.sum_peak_after_ua, result.sum_peak_before_ua);
}

TEST(PartitionedResynth, DelayMarginUnlocksMoreRetiming) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  ResynthOptions tight;
  tight.max_retimed_gates = 60;
  tight.delay_margin = 0.0;
  ResynthOptions loose = tight;
  loose.delay_margin = 0.10;
  const auto r_tight =
      retime_for_iddq_partitioned(f.nl, f.library, groups, tight);
  const auto r_loose =
      retime_for_iddq_partitioned(f.nl, f.library, groups, loose);
  EXPECT_LE(r_loose.sum_peak_after_ua, r_tight.sum_peak_after_ua);
  // The loose variant may spend its margin, and no more.
  EXPECT_LE(r_loose.delay_after_ps, r_loose.delay_before_ps * 1.10 + 1e-6);
}

TEST(PartitionedResynth, RejectsBadOptions) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  const auto rejects = [&](const ResynthOptions& opts) {
    EXPECT_THROW(
        (void)retime_for_iddq_partitioned(f.nl, f.library, groups, opts),
        Error);
  };
  ResynthOptions opts;
  opts.grid_bin_ps = 0.0;
  rejects(opts);
  opts = ResynthOptions{};
  opts.target_peak_reduction = 1.0;
  rejects(opts);
  opts.target_peak_reduction = -0.1;
  rejects(opts);
  opts = ResynthOptions{};
  opts.delay_margin = -0.01;
  rejects(opts);
}

TEST(PartitionedResynth, KeepsCriticalPathAtZeroMargin) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  ResynthOptions opts;
  opts.delay_margin = 0.0;
  const auto result =
      retime_for_iddq_partitioned(f.nl, f.library, groups, opts);
  EXPECT_NEAR(result.delay_after_ps, result.delay_before_ps,
              1e-6 * result.delay_before_ps);
}

TEST(PartitionedResynth, SensorAreaImprovesUnderEvaluator) {
  // The end-to-end claim of the extension: evaluating the retimed circuit
  // under the extended partition must not increase the total sensor area.
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  const part::EvalContext before_ctx(f.nl, f.library, elec::SensorSpec{},
                                     part::CostWeights{});
  part::PartitionEvaluator before(
      before_ctx, part::Partition::from_groups(f.nl, groups));
  const auto result = retime_for_iddq_partitioned(f.nl, f.library, groups);
  const part::EvalContext after_ctx(result.netlist, f.library,
                                    elec::SensorSpec{}, part::CostWeights{});
  part::PartitionEvaluator after(
      after_ctx, part::Partition::from_groups(result.netlist, result.groups));
  EXPECT_LE(after.total_sensor_area(), before.total_sensor_area() * 1.001);
}

TEST(PartitionedResynth, RejectsIncompleteGroups) {
  Fixture f;
  auto groups = split_groups(f.nl, 3);
  groups[0].pop_back();  // one gate uncovered
  EXPECT_THROW(
      (void)retime_for_iddq_partitioned(f.nl, f.library, groups), Error);
}

}  // namespace
}  // namespace iddq::core
