// Copy-on-write module profiles: a copied evaluator shares its source's
// synced current profiles, so every move on either side must leave the
// other side bit-identical to an evaluator that never shared anything.
// Each lineage below runs next to an unshared twin — a fresh evaluator on
// the same start partition with the same move log replayed — and every
// observable (partition, fitness, costs, D_BIC, per-module reports) must
// match the twin bit-for-bit, including across module erasures, copies of
// copies, copies of dirty evaluators, and sibling refreshes running
// concurrently on an ExecutorPool.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "core/start_partition.hpp"
#include "netlist/gen/random_dag.hpp"
#include "partition/evaluator.hpp"
#include "support/bitset.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::part {
namespace {

using Move = std::pair<netlist::GateId, std::uint32_t>;

void expect_bits_eq(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

/// Every observable of `got` equals `want`'s, bit-for-bit.
void expect_same_state(PartitionEvaluator& got, PartitionEvaluator& want) {
  ASSERT_EQ(got.partition(), want.partition());
  const Fitness fg = got.fitness();
  const Fitness fw = want.fitness();
  expect_bits_eq(fg.violation, fw.violation, "violation");
  expect_bits_eq(fg.cost, fw.cost, "cost");
  const auto cg = got.costs().as_array();
  const auto cw = want.costs().as_array();
  for (std::size_t i = 0; i < cw.size(); ++i)
    expect_bits_eq(cg[i], cw[i], "costs[i]");
  expect_bits_eq(got.d_bic_ps(), want.d_bic_ps(), "d_bic");
  for (std::uint32_t m = 0; m < want.partition().module_count(); ++m) {
    const ModuleReport rg = got.module_report(m);
    const ModuleReport rw = want.module_report(m);
    EXPECT_EQ(rg.gates, rw.gates);
    expect_bits_eq(rg.idd_max_ua, rw.idd_max_ua, "idd_max");
    expect_bits_eq(rg.leakage_ua, rw.leakage_ua, "leakage");
    expect_bits_eq(rg.area, rw.area, "area");
    expect_bits_eq(rg.separation, rw.separation, "separation");
    expect_bits_eq(rg.settle_ps, rw.settle_ps, "settle");
  }
}

Partition start_partition(const netlist::Netlist& nl, std::size_t modules) {
  Rng rng(17);
  return core::make_start_partition(nl, modules, rng);
}

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("cow", 320, 14, 29));
  lib::CellLibrary library = lib::default_library();
  EvalContext ctx{nl, library, elec::SensorSpec{}, CostWeights{}};
  Partition start;

  explicit Fixture(std::size_t modules)
      : start(start_partition(nl, modules)) {}
};

/// An evaluator plus the move log that produced it from the fixture's
/// start partition, and an unshared twin built by replaying that log.
struct Lineage {
  PartitionEvaluator eval;
  std::vector<Move> log;

  [[nodiscard]] PartitionEvaluator twin(const Fixture& f) const {
    PartitionEvaluator t(f.ctx, f.start);
    for (const auto& [g, target] : log) t.move_gate(g, target);
    return t;
  }

  void move(netlist::GateId g, std::uint32_t target) {
    eval.move_gate(g, target);
    log.emplace_back(g, target);
  }

  /// A random move to another module (may empty and erase its source).
  void random_move(Rng& rng) {
    const auto& p = eval.partition();
    const auto logic = eval.context().nl.logic_gates();
    const netlist::GateId g = logic[rng.index(logic.size())];
    const std::uint32_t src = p.module_of(g);
    auto target =
        static_cast<std::uint32_t>(rng.index(p.module_count() - 1));
    if (target >= src) ++target;
    move(g, target);
  }

  /// Moves every gate of the smallest module elsewhere, erasing it.
  void drain_smallest(Rng& rng) {
    const auto& p = eval.partition();
    std::uint32_t smallest = 0;
    for (std::uint32_t m = 1; m < p.module_count(); ++m)
      if (p.module_size(m) < p.module_size(smallest)) smallest = m;
    auto target =
        static_cast<std::uint32_t>(rng.index(p.module_count() - 1));
    if (target >= smallest) ++target;
    const auto gates = p.module(smallest);
    const std::vector<netlist::GateId> members(gates.begin(), gates.end());
    // Only the last move erases the source slot, so `target` stays valid.
    for (const netlist::GateId g : members) move(g, target);
  }

  /// `count` random moves with a module drained every 50th step; queries
  /// fitness every 25th so copies see both clean and dirty modules.
  void walk(Rng& rng, int count) {
    for (int step = 0; step < count; ++step) {
      if (eval.partition().module_count() < 3) return;
      if (step % 50 == 49)
        drain_smallest(rng);
      else
        random_move(rng);
      if (step % 25 == 24) (void)eval.fitness();
    }
  }
};

void expect_matches_twin(Lineage& l, const Fixture& f) {
  PartitionEvaluator twin = l.twin(f);
  expect_same_state(l.eval, twin);
  EXPECT_NO_THROW(l.eval.self_check());
}

// (a) Mutating the child leaves the parent exactly as it was.
TEST(SharedProfiles, ChildMovesLeaveParentUnchanged) {
  const Fixture f(12);
  PartitionEvaluator parent(f.ctx, f.start);
  const Fitness before = parent.fitness();
  const auto costs_before = parent.costs().as_array();

  Lineage child{parent, {}};
  Rng rng(101);
  child.walk(rng, 240);
  ASSERT_LT(child.eval.partition().module_count(), 12u)
      << "the walk must erase at least one module";

  const Fitness after = parent.fitness();
  expect_bits_eq(after.violation, before.violation, "violation");
  expect_bits_eq(after.cost, before.cost, "cost");
  const auto costs_after = parent.costs().as_array();
  for (std::size_t i = 0; i < costs_before.size(); ++i)
    expect_bits_eq(costs_after[i], costs_before[i], "costs[i]");
  EXPECT_NO_THROW(parent.self_check());
  PartitionEvaluator fresh(f.ctx, f.start);
  expect_same_state(parent, fresh);
  expect_matches_twin(child, f);
}

// (b) The same with the roles swapped: mutating the parent leaves the
// child exactly as it was.
TEST(SharedProfiles, ParentMovesLeaveChildUnchanged) {
  const Fixture f(12);
  Lineage parent{PartitionEvaluator(f.ctx, f.start), {}};
  (void)parent.eval.fitness();
  PartitionEvaluator child = parent.eval;
  const Fitness before = child.fitness();

  Rng rng(202);
  parent.walk(rng, 240);
  ASSERT_LT(parent.eval.partition().module_count(), 12u);

  const Fitness after = child.fitness();
  expect_bits_eq(after.violation, before.violation, "violation");
  expect_bits_eq(after.cost, before.cost, "cost");
  EXPECT_NO_THROW(child.self_check());
  PartitionEvaluator fresh(f.ctx, f.start);
  expect_same_state(child, fresh);
  expect_matches_twin(parent, f);
}

// (c) A grandchild chain: copy a copy, then mutate all three generations
// in interleaved order.
TEST(SharedProfiles, GrandchildChainInterleavedMoves) {
  const Fixture f(14);
  Rng rng(303);
  std::vector<Lineage> chain;
  chain.reserve(3);
  chain.push_back(Lineage{PartitionEvaluator(f.ctx, f.start), {}});
  chain[0].walk(rng, 30);
  (void)chain[0].eval.fitness();
  chain.push_back(chain[0]);
  chain[1].walk(rng, 30);
  (void)chain[1].eval.fitness();
  chain.push_back(chain[1]);

  for (int round = 0; round < 80; ++round) {
    for (auto& l : chain) {
      if (l.eval.partition().module_count() < 3) continue;
      if (round % 40 == 39)
        l.drain_smallest(rng);
      else
        l.random_move(rng);
      if (round % 10 == 9) (void)l.eval.fitness();
    }
  }
  for (auto& l : chain) expect_matches_twin(l, f);
}

// (d) Copying an evaluator that was never refreshed (every module dirty),
// and one with a mix of dirty and clean modules, then mutating both sides.
TEST(SharedProfiles, CopiesOfDirtyEvaluators) {
  const Fixture f(12);
  Rng rng(404);
  Lineage never_refreshed{PartitionEvaluator(f.ctx, f.start), {}};
  Lineage copy_a = never_refreshed;
  never_refreshed.walk(rng, 120);
  copy_a.walk(rng, 120);
  expect_matches_twin(never_refreshed, f);
  expect_matches_twin(copy_a, f);

  Lineage partly_dirty{PartitionEvaluator(f.ctx, f.start), {}};
  (void)partly_dirty.eval.fitness();
  partly_dirty.random_move(rng);
  partly_dirty.random_move(rng);
  Lineage copy_b = partly_dirty;
  partly_dirty.walk(rng, 120);
  copy_b.walk(rng, 120);
  expect_matches_twin(partly_dirty, f);
  expect_matches_twin(copy_b, f);
}

// The sharing rule itself: a copy aliases exactly the synced profiles, a
// write un-shares before it lands, and the slot swap keeps each handle.
TEST(SharedProfiles, CopySharesOnlySyncedProfiles) {
  DynamicBitset times(8);
  times.set(3);
  SharedProfiles source;
  source.assign(3, 8);
  for (std::size_t m = 0; m < 3; ++m) source.writable(m).add_gate(times, 1.0);
  (void)source[0].max_current_ua();  // syncs profiles 0 and 2 only
  (void)source[2].max_current_ua();

  SharedProfiles copy = source;
  EXPECT_EQ(&copy[0], &source[0]);
  EXPECT_NE(&copy[1], &source[1]);  // stale: a private deep copy
  EXPECT_TRUE(copy[1] == source[1]);
  EXPECT_EQ(&copy[2], &source[2]);

  copy.writable(0).add_gate(times, 2.0);
  EXPECT_NE(&copy[0], &source[0]);
  EXPECT_DOUBLE_EQ(source[0].max_current_ua(), 1.0);
  EXPECT_DOUBLE_EQ(copy[0].max_current_ua(), 3.0);

  const auto* last = &copy[2];
  copy.erase_by_swap(0);
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(&copy[0], last);
  EXPECT_EQ(&copy[0], &source[2]);
  copy.erase_by_swap(1);
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_EQ(&copy[0], &source[2]);
}

/// Runs body(0) and body(1) on the pool's two threads at once: each body
/// starts only after both indices were claimed, so the calling thread
/// cannot finish the pair alone before the worker wakes up.
void run_overlapped(support::ExecutorPool& pool,
                    const std::function<void(std::size_t)>& body) {
  std::atomic<int> started{0};
  pool.parallel_for_indexed(2, [&](std::size_t i) {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    body(i);
  });
}

// (e) Sibling copies of one parent refreshed concurrently on a 2-thread
// pool (the ES worker phase), copies taken and mutated on the workers
// themselves (the tabu fan-out), and copies of a dirty evaluator
// refreshed concurrently, generation after generation.
TEST(SharedProfiles, SiblingsRefreshConcurrently) {
  const Fixture f(12);
  support::ExecutorPool pool(2);
  Rng rng(505);
  Lineage parent{PartitionEvaluator(f.ctx, f.start), {}};
  (void)parent.eval.fitness();

  for (int gen = 0; gen < 16; ++gen) {
    std::vector<Lineage> siblings(2, parent);
    for (auto& s : siblings) s.walk(rng, 6);
    run_overlapped(pool, [&siblings](std::size_t i) {
      (void)siblings[i].eval.fitness();
    });

    // Worker-side copies: each worker copies the (synced) parent and moves
    // one gate in its copy, so clones of shared profiles race only with
    // const reads.
    const auto& p = parent.eval.partition();
    const auto logic = f.nl.logic_gates();
    std::vector<Move> worker_moves;
    while (worker_moves.size() < 2) {
      const netlist::GateId g = logic[rng.index(logic.size())];
      const std::uint32_t src = p.module_of(g);
      if (p.module_size(src) < 2) continue;
      auto target =
          static_cast<std::uint32_t>(rng.index(p.module_count() - 1));
      if (target >= src) ++target;
      worker_moves.emplace_back(g, target);
    }
    std::vector<Fitness> worker_fitness(worker_moves.size());
    run_overlapped(pool, [&](std::size_t i) {
      PartitionEvaluator copy = parent.eval;
      copy.move_gate(worker_moves[i].first, worker_moves[i].second);
      worker_fitness[i] = copy.fitness();
    });
    for (std::size_t i = 0; i < worker_moves.size(); ++i) {
      Lineage serial = parent;
      serial.move(worker_moves[i].first, worker_moves[i].second);
      PartitionEvaluator twin = serial.twin(f);
      const Fitness want = twin.fitness();
      expect_bits_eq(worker_fitness[i].violation, want.violation,
                     "violation");
      expect_bits_eq(worker_fitness[i].cost, want.cost, "cost");
    }

    // Copies of a dirty evaluator sync the dirty modules' profile trees
    // in their own refresh: those profiles must be private to each copy.
    Lineage dirty = parent;
    dirty.random_move(rng);
    std::vector<Lineage> dirty_copies(2, dirty);
    run_overlapped(pool, [&dirty_copies](std::size_t i) {
      (void)dirty_copies[i].eval.fitness();
    });
    for (auto& c : dirty_copies) expect_matches_twin(c, f);

    for (auto& s : siblings) expect_matches_twin(s, f);
    parent = siblings[rng.index(siblings.size())];
    if (parent.eval.partition().module_count() < 3) break;
  }
}

}  // namespace
}  // namespace iddq::part
