// Shared move neighbourhood of the search methods.
//
// The ES mutation (core/evolution.hpp), simulated annealing
// (core/annealing.hpp), tabu search (core/tabu.hpp) and the greedy refiner
// all explore one neighbourhood: relocate a boundary gate of one module
// into a neighbouring module it is wired to. The sampler below excludes
// module deletion — a move never empties a module, so annealing and tabu
// keep K fixed at the start partition's value and stay comparable to the
// ES at matched budgets.
#pragma once

#include <vector>

#include "partition/evaluator.hpp"
#include "support/rng.hpp"

namespace iddq::core {

/// Boundary gates of module `m`: gates directly connected (fan-in or
/// fan-out) to a logic gate outside m, in module order.
[[nodiscard]] std::vector<netlist::GateId> boundary_gates(
    const part::PartitionEvaluator& eval, std::uint32_t m);

/// A reversible candidate move: gate `gate` from its current module to
/// `target`. `gate == netlist::kNoGate` means "no move found".
struct GateMove {
  netlist::GateId gate = netlist::kNoGate;
  std::uint32_t target = 0;

  [[nodiscard]] bool valid() const noexcept {
    return gate != netlist::kNoGate;
  }
};

/// Combined violation-penalized scalar objective used by the local-search
/// optimizers (the Metropolis criterion and the tabu candidate ranking both
/// need a single number).
[[nodiscard]] double penalized_objective(part::PartitionEvaluator& eval,
                                         double violation_penalty);

/// The same objective for a *hypothetical* move, via the evaluator's
/// copy-free probe_move(): bit-identical to copying `eval`, applying the
/// move, and calling penalized_objective on the copy — without the
/// O(gates + K) copy, its two cloned profiles, or a full delay
/// recomputation.
[[nodiscard]] double probe_objective(part::PartitionEvaluator& eval,
                                     const GateMove& move,
                                     double violation_penalty);

/// Fills `targets` with the modules (other than `src`) that gate `g` is
/// wired to, in fanin-then-fanout first-seen order — the shared "where can
/// this gate move" rule of every local-search neighbourhood (the sampler
/// below and the greedy refiner's scan).
void neighbor_modules(const part::PartitionEvaluator& eval, netlist::GateId g,
                      std::uint32_t src, std::vector<std::uint32_t>& targets);

/// Samples a boundary-gate move that cannot empty a module (K preserved).
/// Returns an invalid move when no candidate is found within the internal
/// attempt limit (e.g. single-module partitions).
[[nodiscard]] GateMove sample_boundary_move(
    const part::PartitionEvaluator& eval, Rng& rng);

}  // namespace iddq::core
