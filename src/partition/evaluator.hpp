// PartitionEvaluator: incremental evaluation of constraints and costs.
//
// The paper's evolution strategy relies on recomputing costs "just for the
// modified modules" (section 4.2). EvalContext holds everything immutable
// per circuit (netlist, bound cells, transition-time sets, distance oracle,
// timing graph, settling model, sensor spec, weights); PartitionEvaluator
// holds one partition plus per-module caches:
//
//   * current/count profiles  -> iDD_max,i, n_i(t)      (add/remove per gate)
//   * leakage sums            -> discriminability check (O(1) per move)
//   * separation sums S(M_i)  -> c3                     (O(|near|) per move)
//   * virtual-rail capacitance-> tau_i                  (O(1) per move)
//   * per-module cell-type counts -> delay-model anchors
//
// The delay-dependent terms (c2, c4) and the per-module sensor areas (c1)
// are refreshed lazily on query, but *incrementally*: a move dirties
// exactly its {source, target} modules, the refresh rederives the delay
// anchors / area / settling only for dirty modules (into persistent scratch
// — no per-query allocation), and the set of gates whose degradation
// factor actually changed seeds est::IncrementalTiming, which repropagates
// only the affected cone of the critical-path recurrence. Every derived
// value is a pure function of the per-module sums, computed by the same
// expressions on the same operands as a full recomputation, so the refresh
// is bit-identical to the historical full pass.
// tests/partition/test_incremental.cpp verifies full == incremental on
// random move sequences; tests/partition/test_probe.cpp pins probe_move
// against copy + move_gate + fitness bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "electrical/sensor_model.hpp"
#include "electrical/settling.hpp"
#include "estimators/current_profile.hpp"
#include "estimators/incremental_timing.hpp"
#include "estimators/transition_times.hpp"
#include "library/cell_library.hpp"
#include "netlist/distance_oracle.hpp"
#include "netlist/netlist.hpp"
#include "partition/cost_model.hpp"
#include "partition/partition.hpp"

namespace iddq::part {

/// Immutable per-circuit evaluation context (shared by many evaluators).
class EvalContext {
 public:
  /// `grid_bin_ps` is the transition-time grid resolution (section 3.1's
  /// time grid); the default resolves a quarter of the fastest default-
  /// library cell.
  EvalContext(const netlist::Netlist& nl, const lib::CellLibrary& library,
              elec::SensorSpec sensor, CostWeights weights,
              std::uint32_t rho = 4, double grid_bin_ps = 45.0);

  const netlist::Netlist& nl;
  std::vector<lib::CellParams> cells;      // by GateId
  est::TransitionTimes transition_times;
  netlist::DistanceOracle oracle;
  est::TimingGraph timing_graph;           // shared topological order
  elec::SettlingModel settling;
  elec::SensorSpec sensor;
  CostWeights weights;

  /// Dense cell-type indexing for the delay-model anchor cache.
  std::vector<std::uint16_t> type_of;      // by GateId; inputs = 0 (unused)
  std::vector<double> type_cg_ff;          // by type index
  std::vector<double> type_rg_kohm;        // by type index
  std::size_t type_count = 0;

  double d_nominal_ps = 0.0;               // critical path without sensors
  double leak_cap_ua = 0.0;                // IDDQ_th / d
};

/// Per-module snapshot used by reports and benches.
struct ModuleReport {
  std::size_t gates = 0;
  double idd_max_ua = 0.0;
  double leakage_ua = 0.0;
  double discriminability = 0.0;
  double rs_kohm = 0.0;
  double cs_ff = 0.0;
  double tau_ps = 0.0;
  double area = 0.0;
  double separation = 0.0;
  double rail_perturbation_mv = 0.0;
  double settle_ps = 0.0;
};

/// What a hypothetical move would score: exactly the Fitness/Costs a copy
/// of the evaluator would report after move_gate(), without the copy.
struct MoveProbe {
  Fitness fitness;
  Costs costs;
};

/// Per-instance scratch buffers excluded from copies: a copied evaluator
/// starts with fresh (empty) scratch instead of duplicating its source's
/// buffers — the contents are meaningless between calls, and the
/// population hot path copies evaluators by the tens of thousands.
template <class T>
struct CopyDroppedScratch {
  T value{};
  CopyDroppedScratch() = default;
  CopyDroppedScratch(const CopyDroppedScratch&) noexcept {}
  CopyDroppedScratch& operator=(const CopyDroppedScratch&) noexcept {
    return *this;
  }
  CopyDroppedScratch(CopyDroppedScratch&&) = default;
  CopyDroppedScratch& operator=(CopyDroppedScratch&&) = default;
};

/// Per-module current profiles (2 * grid slots each, the bulk of an
/// evaluator), shared copy-on-write between an evaluator and its copies:
/// a copy takes handles, and writable() clones a profile only while
/// another copy still holds it. So an ES child pays O(K) handle copies
/// plus one profile per module its mutation touches. Invariant: a shared
/// profile is always synced — the copy constructor shares synced profiles
/// and deep-copies the others, and writes always un-share first. Shared
/// profiles therefore see only const reads that never take the lazy sync
/// path, and sibling copies may refresh concurrently on ExecutorPool
/// workers without a lock.
class SharedProfiles {
 public:
  SharedProfiles() = default;
  SharedProfiles(const SharedProfiles& other);
  SharedProfiles& operator=(const SharedProfiles& other);
  SharedProfiles(SharedProfiles&&) = default;
  SharedProfiles& operator=(SharedProfiles&&) = default;

  /// `modules` fresh, empty profiles over `grid` slots.
  void assign(std::size_t modules, std::size_t grid);
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] const est::ModuleCurrentProfile& operator[](
      std::size_t m) const noexcept {
    return *slots_[m];
  }
  /// Write access to profile m: clones it first when shared.
  [[nodiscard]] est::ModuleCurrentProfile& writable(std::size_t m);
  /// erase_module's slot swap: the last profile takes slot m (m may be
  /// the last), then the last slot goes.
  void erase_by_swap(std::size_t m);

 private:
  std::vector<std::shared_ptr<est::ModuleCurrentProfile>> slots_;
};

class PartitionEvaluator {
 public:
  /// Takes ownership of the partition and fully computes all caches.
  PartitionEvaluator(const EvalContext& ctx, Partition partition);

  // Copyable: evolution-strategy children copy the parent and mutate.
  // A copy shares the source's current profiles copy-on-write
  // (SharedProfiles) and drops the timing arrival state
  // (IncrementalTiming) and the probe scratch.
  PartitionEvaluator(const PartitionEvaluator&) = default;
  PartitionEvaluator& operator=(const PartitionEvaluator&) = default;
  PartitionEvaluator(PartitionEvaluator&&) = default;
  PartitionEvaluator& operator=(PartitionEvaluator&&) = default;

  [[nodiscard]] const Partition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] const EvalContext& context() const noexcept { return *ctx_; }

  /// Moves a gate to another module, incrementally updating every cache.
  /// Erases the source module if the move empties it (module indices shift
  /// as documented on Partition::erase_empty_module).
  void move_gate(netlist::GateId g, std::uint32_t target);

  /// Scores the move (g -> target) against the current state without
  /// committing it: returns bit-for-bit what `copy = *this;
  /// copy.move_gate(g, target); {copy.fitness(), copy.costs()}` would,
  /// using src/target scratch overlays plus a rolled-back timing probe
  /// instead of the copy (O(gates + K), two cloned profiles and a full
  /// timing rebuild). The evaluator's logical state
  /// is unchanged (scratch and lazy caches may refresh). Requires a move
  /// that does not empty its source module (the accept/reject loops never
  /// propose one; commit emptying moves with move_gate directly).
  [[nodiscard]] MoveProbe probe_move(netlist::GateId g, std::uint32_t target);

  /// Constraint violation: sum over modules of the relative leakage excess
  /// over IDDQ_th/d; 0 when the partition is feasible. O(K).
  [[nodiscard]] double violation() const;

  /// All five cost terms (refreshes the lazy delay/area terms when dirty).
  [[nodiscard]] Costs costs();

  /// Lexicographic fitness (violation, weighted cost).
  [[nodiscard]] Fitness fitness();

  /// Degraded critical path D_BIC, in ps (triggers delay evaluation).
  [[nodiscard]] double d_bic_ps();

  /// Brings every lazy cache up to date now (dirty modules rederived, the
  /// changed-gate cone repropagated). Queries do this on demand; call it
  /// explicitly before fanning probe work out from a shared round-start
  /// evaluator so each worker copy starts clean.
  void refresh();

  /// Per-module report for tables.
  [[nodiscard]] ModuleReport module_report(std::uint32_t m);

  /// Total BIC sensor area (sum over modules).
  [[nodiscard]] double total_sensor_area();

  /// Verification helper: recomputes every cache from scratch and compares
  /// with the incrementally maintained state (throws on mismatch). Covers
  /// the lazy delay state: the degradation factors, per-module area and
  /// settling caches, and D_BIC must match a from-scratch derivation of
  /// the current sums bit-for-bit.
  void self_check();

 private:
  void rebuild_all();
  void erase_module(std::uint32_t m);
  [[nodiscard]] double module_rs_kohm(std::uint32_t m) const;
  [[nodiscard]] double module_cs_ff(std::uint32_t m) const;
  /// Derives the delay-model anchors, sensor area, and settling time of a
  /// module's (profile, cvr, histogram) state. The single code path for
  /// refresh(), probe_move(), and self_check() — sharing it is what keeps
  /// overlay arithmetic bit-identical to committed refreshes. The row
  /// spans must be ctx_->type_count wide (a row of the SoA matrices below
  /// or an equally sized scratch row).
  void derive_module_delay(double idd_max_ua, std::uint32_t max_switching,
                           double cvr_ff,
                           std::span<const std::uint32_t> histogram,
                           std::span<double> type_delta_row, double& area,
                           double& settle) const;
  void mark_dirty(std::uint32_t m);

  /// What moving g from src to target removes from src's separation sum
  /// and adds to target's, read from the pre-move assignment. The single
  /// scan behind move_gate() and probe_move(), so a probe's overlay uses
  /// exactly the operands a committed move applies.
  struct SeparationShift {
    double src;
    double target;
  };
  [[nodiscard]] SeparationShift separation_shift(netlist::GateId g,
                                                 std::uint32_t src,
                                                 std::uint32_t target) const;

  /// Degradation factor of gate g under the committed delay state:
  /// delta_row(module_of(g))[type_of(g)].
  [[nodiscard]] double gate_factor(netlist::GateId g) const noexcept {
    return type_delta_[partition_.module_of(g) * ctx_->type_count +
                       ctx_->type_of[g]];
  }

  /// Rows of the flat [module x type] SoA matrices.
  [[nodiscard]] std::span<const std::uint32_t> hist_row(
      std::uint32_t m) const noexcept {
    return std::span<const std::uint32_t>(type_histogram_)
        .subspan(m * ctx_->type_count, ctx_->type_count);
  }
  [[nodiscard]] std::span<std::uint32_t> hist_row(std::uint32_t m) noexcept {
    return std::span<std::uint32_t>(type_histogram_)
        .subspan(m * ctx_->type_count, ctx_->type_count);
  }
  [[nodiscard]] std::span<const double> delta_row(
      std::uint32_t m) const noexcept {
    return std::span<const double>(type_delta_)
        .subspan(m * ctx_->type_count, ctx_->type_count);
  }
  [[nodiscard]] std::span<double> delta_row(std::uint32_t m) noexcept {
    return std::span<double>(type_delta_)
        .subspan(m * ctx_->type_count, ctx_->type_count);
  }

  const EvalContext* ctx_;
  Partition partition_;

  // Per-module caches, indexed like partition_ modules. The per-type state
  // is SoA: one flat [module x type] matrix per quantity (stride
  // ctx_->type_count) instead of a vector-of-vectors, so a refresh sweeps
  // contiguous memory the compiler can vectorize, a probe's overlay rows
  // are cheap span copies, and erase_module's slot swap is a copy_n
  // instead of a heap-handle shuffle.
  SharedProfiles profiles_;
  std::vector<double> leak_ua_;
  std::vector<double> cvr_ff_;
  std::vector<double> separation_;
  std::vector<std::uint32_t> type_histogram_;  // flat [module x type]

  // Lazily refreshed delay/area state (valid where !dirty_[m]). The
  // per-gate degradation factor is delta_row(module_of(g))[type_of(g)]
  // — served to the timing engine through a lookup, never materialised as
  // a per-gate array.
  std::vector<double> type_delta_;               // flat [module x type]
  std::vector<double> area_;                     // sensor area per module
  std::vector<double> settle_ps_;                // Delta(tau) per module
  std::vector<std::uint8_t> dirty_;              // per module
  bool any_dirty_ = true;
  est::IncrementalTiming timing_;  // drops arrival state on copy
  double d_bic_ps_ = 0.0;
  double settle_max_ps_ = 0.0;

  struct ProbeScratch {
    std::vector<netlist::GateId> seeds;
    std::vector<std::uint32_t> hist_src;
    std::vector<std::uint32_t> hist_tgt;
    std::vector<double> row_src;
    std::vector<double> row_tgt;
  };
  CopyDroppedScratch<ProbeScratch> scratch_;
};

}  // namespace iddq::part
