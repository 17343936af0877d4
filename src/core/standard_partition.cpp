#include "core/standard_partition.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "netlist/levelize.hpp"
#include "support/error.hpp"

namespace iddq::core {

namespace {

constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

/// Indexed binary max-heap over the free logic gates (items are positions
/// in Netlist::logic_gates()). Each heap node carries its item's two
/// discounts, so sifts compare without indirection. The order is
/// (discount_cluster desc, discount_free asc, position asc): exactly the
/// winner the first-wins linear scan over logic_gates() picks.
class FreeGateHeap {
 public:
  /// Every item starts free with discount_cluster 0.
  explicit FreeGateHeap(std::vector<double> discount_free)
      : nodes_(discount_free.size()), slot_(discount_free.size()) {
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i] = Node{0.0, discount_free[i], i};
      slot_[i] = i;
    }
    for (std::size_t s = nodes_.size() / 2; s-- > 0;) sift_down(s);
  }

  [[nodiscard]] bool contains(std::uint32_t i) const {
    return slot_[i] != kAbsent;
  }
  [[nodiscard]] std::uint32_t top() const { return nodes_.front().item; }
  [[nodiscard]] double discount_cluster(std::uint32_t i) const {
    return nodes_[slot_[i]].cluster;
  }

  void erase(std::uint32_t i) {
    const std::size_t s = slot_[i];
    slot_[i] = kAbsent;
    const Node last = nodes_.back();
    nodes_.pop_back();
    if (last.item == i) return;
    place(s, last);
    sift_down(s);
    sift_up(slot_[last.item]);
  }

  /// A clustered neighbour at weight `w` (>= 1): discount_cluster grows,
  /// discount_free shrinks, so the priority only rises.
  void cluster_neighbor(std::uint32_t i, double w) {
    Node& node = nodes_[slot_[i]];
    node.cluster += w;
    node.free -= w;
    sift_up(slot_[i]);
  }

  /// New module: discount_cluster back to 0, so the priority only falls.
  void reset_cluster(std::uint32_t i) {
    nodes_[slot_[i]].cluster = 0.0;
    sift_down(slot_[i]);
  }

 private:
  struct Node {
    double cluster;
    double free;
    std::uint32_t item;
  };

  [[nodiscard]] static bool before(const Node& a, const Node& b) {
    if (a.cluster != b.cluster) return a.cluster > b.cluster;
    if (a.free != b.free) return a.free < b.free;
    return a.item < b.item;
  }

  void place(std::size_t s, const Node& node) {
    nodes_[s] = node;
    slot_[node.item] = static_cast<std::uint32_t>(s);
  }

  void sift_up(std::size_t s) {
    const Node node = nodes_[s];
    while (s > 0) {
      const std::size_t parent = (s - 1) / 2;
      if (!before(node, nodes_[parent])) break;
      place(s, nodes_[parent]);
      s = parent;
    }
    place(s, node);
  }

  void sift_down(std::size_t s) {
    const Node node = nodes_[s];
    const std::size_t n = nodes_.size();
    while (true) {
      std::size_t child = 2 * s + 1;
      if (child >= n) break;
      if (child + 1 < n && before(nodes_[child + 1], nodes_[child])) ++child;
      if (!before(nodes_[child], node)) break;
      place(s, nodes_[child]);
      s = child;
    }
    place(s, node);
  }

  std::vector<Node> nodes_;           // heap order
  std::vector<std::uint32_t> slot_;   // item -> index in nodes_, or kAbsent
};

}  // namespace

part::Partition standard_partition(const netlist::Netlist& nl,
                                   const netlist::DistanceOracle& oracle,
                                   std::span<const std::size_t> module_sizes) {
  const std::size_t n = nl.logic_gate_count();
  const std::size_t total =
      std::accumulate(module_sizes.begin(), module_sizes.end(),
                      std::size_t{0});
  require(total == n, "standard partition: module sizes must sum to " +
                          std::to_string(n) + " (got " +
                          std::to_string(total) + ")");
  for (const std::size_t s : module_sizes)
    require(s >= 1, "standard partition: zero-size module requested");

  const auto logic = nl.logic_gates();
  const double rho = static_cast<double>(oracle.rho());

  // Everything below is indexed by position in logic_gates(); position_of
  // maps a gate id there (kAbsent for inputs, which are never clustered).
  std::vector<std::uint32_t> position_of(nl.gate_count(), kAbsent);
  for (std::uint32_t i = 0; i < n; ++i) position_of[logic[i]] = i;

  // discount_cluster(i): sum over clustered gates h near i of
  // (rho - d(i,h)); the sum of path lengths to the cluster is
  // |cluster|*rho - discount. discount_free(i): same against the free set,
  // for the tie-break (maximising path lengths to unclustered ==
  // minimising discount_free). The heap keeps both for the free gates,
  // and each accumulates its terms in the original order.
  std::vector<double> discount_free(n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i)
    for (const auto& [neighbor, distance] : oracle.near(logic[i]))
      if (position_of[neighbor] != kAbsent)
        discount_free[i] += rho - static_cast<double>(distance);
  FreeGateHeap heap(std::move(discount_free));
  // Free gates whose discount_cluster left 0 in the current module.
  std::vector<std::uint32_t> touched;

  // Seeds: free gates in (depth, position) order; a cursor skips the ones
  // already clustered, which never become free again.
  const auto levels = netlist::levelize(nl);
  std::vector<std::uint32_t> by_depth(n);
  std::iota(by_depth.begin(), by_depth.end(), std::uint32_t{0});
  std::stable_sort(by_depth.begin(), by_depth.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return levels.depth[logic[a]] < levels.depth[logic[b]];
                   });
  std::size_t seed_cursor = 0;

  part::Partition partition(nl.gate_count(), module_sizes.size());

  const auto add_to_cluster = [&](std::uint32_t i, std::uint32_t m) {
    partition.assign(logic[i], m);
    heap.erase(i);
    for (const auto& [neighbor, distance] : oracle.near(logic[i])) {
      const std::uint32_t j = position_of[neighbor];
      if (j == kAbsent || !heap.contains(j)) continue;
      // distance < rho, so weight >= 1 and a 0 discount means untouched.
      if (heap.discount_cluster(j) == 0.0) touched.push_back(j);
      heap.cluster_neighbor(j, rho - static_cast<double>(distance));
    }
  };

  for (std::uint32_t m = 0; m < module_sizes.size(); ++m) {
    // Seed: free gate as near to a primary input as possible.
    while (!heap.contains(by_depth[seed_cursor])) ++seed_cursor;
    const std::uint32_t seed = by_depth[seed_cursor];
    // Reset cluster discounts for the new module.
    for (const std::uint32_t j : touched)
      if (heap.contains(j)) heap.reset_cluster(j);
    touched.clear();
    add_to_cluster(seed, m);

    // argmin over free gates of sum-to-cluster == argmax discount_cluster;
    // tie-break: argmax sum-to-free == argmin discount_free.
    for (std::size_t added = 1; added < module_sizes[m]; ++added)
      add_to_cluster(heap.top(), m);
  }
  IDDQ_ASSERT(partition.covers(nl));
  return partition;
}

OptimizerOutcome run_standard(const OptimizerRequest& request) {
  const part::EvalContext& ctx = request.context();
  std::vector<std::size_t> sizes;
  if (request.start) {
    sizes.reserve(request.start->module_count());
    for (std::uint32_t m = 0; m < request.start->module_count(); ++m)
      sizes.push_back(request.start->module_size(m));
  } else {
    const std::size_t k = request.resolved_module_count();
    const std::size_t n = ctx.nl.logic_gate_count();
    require(k >= 1 && k <= n,
            "standard partitioning: module count out of range");
    sizes.assign(k, n / k);
    for (std::size_t i = 0; i < n % k; ++i) ++sizes[i];
  }
  part::PartitionEvaluator eval(
      ctx, standard_partition(ctx.nl, ctx.oracle, sizes));
  OptimizerOutcome out;
  out.method = "standard";
  out.fitness = eval.fitness();
  out.costs = eval.costs();
  out.partition = eval.partition();
  out.iterations = 1;
  out.evaluations = 1;
  request.report(out);
  return out;
}

}  // namespace iddq::core
