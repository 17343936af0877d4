// IDDQ-aware resynthesis: the paper's stated next step.
//
// Conclusion of the paper: "So far only resynthesis for including BIC
// sensors has been considered. Next step is controlling the logic synthesis
// procedure such that the presented cost function is considered at the early
// beginning."
//
// This module implements that step for the dominant cost driver, the
// maximum transient current: a partition-aware *wave-retiming* pass that
// desynchronizes simultaneous switching. The pessimistic estimator charges
// every gate at every possible arrival time; gates of one module that share
// a time slot add their peak currents and force a wide (large-area) bypass
// switch. Inserting a buffer on *every* fan-in edge of a gate shifts the
// gate's entire transition-time set later without changing its function —
// if the gate has timing slack, the critical path is untouched and the
// module's current peak drops.
//
// The pass is greedy and budgeted, against a given partition:
//   1. compute every module's current profile (the inserted buffers switch
//      on their sink gate's virtual rail) and the worst module's peak slot;
//   2. among that module's gates switching at the peak slot, try the ones
//      with the largest (ipeak / fanin-count) ratio whose slack covers the
//      buffer delay;
//   3. keep the first whose retiming lowers the sum of module peaks;
//   4. repeat until the sum improves no more, the target reduction or the
//      buffer budget is reached, or every candidate is timing-critical;
//   5. rebuild the netlist with the chosen buffers.
//
// The bench (ablation_resynth) quantifies the trade: sensor-area reduction
// bought per inserted buffer area, at zero critical-path cost.
#pragma once

#include <cstdint>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/netlist.hpp"

namespace iddq::core {

struct ResynthOptions {
  /// Maximum number of gates to retime (each costs fanin-count buffers).
  std::size_t max_retimed_gates = 64;
  /// Stop when the sum of module peaks has dropped by this factor, in
  /// [0, 1).
  double target_peak_reduction = 0.5;
  /// Transition-time grid resolution, ps (must match the evaluation grid
  /// for the savings to transfer; EvalContext default is 45 ps).
  double grid_bin_ps = 45.0;
  /// Safety margin on the critical path: retiming must keep the circuit
  /// delay within (1 + delay_margin) * original, >= 0. 0 = never touch the
  /// path.
  double delay_margin = 0.0;
};

/// Result of the retiming pass. It minimizes the *sum of per-module peaks*
/// Sum_m max_t I_m(t) — the quantity the sensor-area cost actually charges
/// (A_i = A0 + A1 * iDD_max,i / r) — for a given partition, accounting for
/// the switching current of the inserted buffers themselves (each buffer
/// joins its sink gate's module, sharing that virtual rail).
struct PartitionedResynthResult {
  netlist::Netlist netlist;  // the restructured circuit
  /// The input partition extended with the inserted buffers (gate ids refer
  /// to the *returned* netlist), ready for Partition::from_groups.
  std::vector<std::vector<netlist::GateId>> groups;
  std::size_t retimed_gates = 0;
  std::size_t buffers_added = 0;
  double sum_peak_before_ua = 0.0;  // Sum_m iDD_max,m, original
  double sum_peak_after_ua = 0.0;   // ditto, restructured (incl. buffers)
  double delay_before_ps = 0.0;
  double delay_after_ps = 0.0;

  [[nodiscard]] double sum_peak_reduction() const {
    return sum_peak_before_ua > 0.0
               ? 1.0 - sum_peak_after_ua / sum_peak_before_ua
               : 0.0;
  }
};

/// Restructures `nl` against the partition `module_groups` (every logic
/// gate in exactly one group). The returned netlist is functionally
/// equivalent (buffers only); gate names are preserved and inserted buffers
/// are named "<gate>_prt<k>_<fanin>". Throws iddq::Error on bad options or
/// groups.
[[nodiscard]] PartitionedResynthResult retime_for_iddq_partitioned(
    const netlist::Netlist& nl, const lib::CellLibrary& library,
    const std::vector<std::vector<netlist::GateId>>& module_groups,
    const ResynthOptions& options = {});

}  // namespace iddq::core
