#include "estimators/delay_estimator.hpp"

#include <gtest/gtest.h>

#include "library/cell_library.hpp"
#include "netlist/builder.hpp"
#include "netlist/gen/c17.hpp"

namespace iddq::est {
namespace {

TEST(DelayEstimator, C17NominalCriticalPath) {
  const auto nl = netlist::gen::make_c17();
  const auto cells = lib::bind_cells(nl, lib::default_library());
  // Longest path: three NAND2 levels.
  const double nand2 = cells[nl.at("10")].delay_ps;
  EXPECT_NEAR(nominal_critical_path_ps(nl, cells), 3 * nand2, 1e-9);
}

TEST(DelayEstimator, HeterogeneousPath) {
  netlist::NetlistBuilder b("mixed");
  const auto a = b.add_input("a");
  const auto x = b.add_gate(netlist::GateKind::kNot, "x", {a});
  const auto y = b.add_gate(netlist::GateKind::kXor, "y", {x, a});
  b.mark_output(y);
  const auto nl = std::move(b).build();
  const auto cells = lib::bind_cells(nl, lib::default_library());
  EXPECT_NEAR(nominal_critical_path_ps(nl, cells),
              cells[x].delay_ps + cells[y].delay_ps, 1e-9);
}

TEST(DelayEstimator, DegradedPathScalesWithDelta) {
  const auto nl = netlist::gen::make_c17();
  const auto cells = lib::bind_cells(nl, lib::default_library());
  std::vector<double> delta(nl.gate_count(), 1.05);
  const double d0 = nominal_critical_path_ps(nl, cells);
  EXPECT_NEAR(degraded_critical_path_ps(nl, cells, delta), 1.05 * d0, 1e-9);
}

TEST(DelayEstimator, NonUniformDeltaCanShiftCriticalPath) {
  // Two parallel paths a->x->y and a->z->y; slow down the off-critical one
  // until it dominates.
  netlist::NetlistBuilder b("par");
  const auto a = b.add_input("a");
  const auto c = b.add_input("c");
  const auto x = b.add_gate(netlist::GateKind::kXor, "x", {a, c});  // slow
  const auto z = b.add_gate(netlist::GateKind::kNot, "z", {a});     // fast
  const auto y = b.add_gate(netlist::GateKind::kNand, "y", {x, z});
  b.mark_output(y);
  const auto nl = std::move(b).build();
  const auto cells = lib::bind_cells(nl, lib::default_library());
  std::vector<double> delta(nl.gate_count(), 1.0);
  const double base = nominal_critical_path_ps(nl, cells);
  // Degrade the NOT massively: path through z becomes critical.
  delta[z] = 20.0;
  const double degraded = degraded_critical_path_ps(nl, cells, delta);
  EXPECT_NEAR(degraded, 20.0 * cells[z].delay_ps + cells[y].delay_ps, 1e-9);
  EXPECT_GT(degraded, base);
}

}  // namespace
}  // namespace iddq::est
