#include "estimators/current_profile.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace iddq::est {

void ModuleCurrentProfile::sync_tree() const {
  if (!tree_stale_) return;
  for (std::size_t i = grid_; i-- > 1;) {
    current_ua_[i] = std::max(current_ua_[2 * i], current_ua_[2 * i + 1]);
    switching_[i] = std::max(switching_[2 * i], switching_[2 * i + 1]);
  }
  tree_stale_ = false;
}

void ModuleCurrentProfile::range_max_into(std::size_t lo, std::size_t hi,
                                          OverlayMax& best) const {
  // Iterative segment-tree query over leaf slots [lo, hi); correct for
  // arbitrary (non-power-of-two) grid sizes with the [grid_, 2*grid_)
  // leaf layout. Requires a synced tree.
  for (std::size_t l = grid_ + lo, r = grid_ + hi; l < r; l >>= 1, r >>= 1) {
    if ((l & 1) != 0) {
      best.current_ua = std::max(best.current_ua, current_ua_[l]);
      best.switching = std::max(best.switching, switching_[l]);
      ++l;
    }
    if ((r & 1) != 0) {
      --r;
      best.current_ua = std::max(best.current_ua, current_ua_[r]);
      best.switching = std::max(best.switching, switching_[r]);
    }
  }
}

void ModuleCurrentProfile::add_gate(const DynamicBitset& times,
                                    double ipeak_ua) {
  IDDQ_ASSERT(times.size() == grid_);
  times.for_each([&](std::size_t t) {
    current_ua_[grid_ + t] += ipeak_ua;
    switching_[grid_ + t] += 1;
  });
  tree_stale_ = true;
}

void ModuleCurrentProfile::remove_gate(const DynamicBitset& times,
                                       double ipeak_ua) {
  IDDQ_ASSERT(times.size() == grid_);
  times.for_each([&](std::size_t t) {
    const std::size_t leaf = grid_ + t;
    current_ua_[leaf] -= ipeak_ua;
    IDDQ_ASSERT(switching_[leaf] > 0);
    switching_[leaf] -= 1;
    if (switching_[leaf] == 0) current_ua_[leaf] = 0.0;  // cancel fp residue
  });
  tree_stale_ = true;
}

std::uint32_t ModuleCurrentProfile::peak_overlap(
    const DynamicBitset& times) const {
  IDDQ_ASSERT(times.size() == grid_);
  std::uint32_t best = 0;
  times.for_each(
      [&](std::size_t t) { best = std::max(best, switching_[grid_ + t]); });
  return best == 0 ? 1 : best;
}

ModuleCurrentProfile::OverlayMax ModuleCurrentProfile::max_with_gate_added(
    const DynamicBitset& times, double ipeak_ua) const {
  IDDQ_ASSERT(times.size() == grid_);
  sync_tree();
  const std::size_t lo = times.find_first();
  if (lo == grid_) return {max_current_ua(), max_switching()};
  const std::size_t hi = times.find_last();  // inclusive
  OverlayMax best;
  std::size_t next = lo;
  for (std::size_t t = lo; t <= hi; ++t) {
    double i = current_ua_[grid_ + t];
    std::uint32_t n = switching_[grid_ + t];
    if (t == next) {
      i += ipeak_ua;
      n += 1;
      next = times.find_next(t);
    }
    best.current_ua = std::max(best.current_ua, i);
    best.switching = std::max(best.switching, n);
  }
  range_max_into(0, lo, best);
  range_max_into(hi + 1, grid_, best);
  return best;
}

ModuleCurrentProfile::OverlayMax ModuleCurrentProfile::max_with_gate_removed(
    const DynamicBitset& times, double ipeak_ua) const {
  IDDQ_ASSERT(times.size() == grid_);
  sync_tree();
  const std::size_t lo = times.find_first();
  if (lo == grid_) return {max_current_ua(), max_switching()};
  const std::size_t hi = times.find_last();  // inclusive
  OverlayMax best;
  std::size_t next = lo;
  for (std::size_t t = lo; t <= hi; ++t) {
    double i = current_ua_[grid_ + t];
    std::uint32_t n = switching_[grid_ + t];
    if (t == next) {
      IDDQ_ASSERT(n > 0);
      n -= 1;
      i = n == 0 ? 0.0 : i - ipeak_ua;  // remove_gate's residue cancel
      next = times.find_next(t);
    }
    best.current_ua = std::max(best.current_ua, i);
    best.switching = std::max(best.switching, n);
  }
  range_max_into(0, lo, best);
  range_max_into(hi + 1, grid_, best);
  return best;
}

void ModuleCurrentProfile::self_check() const {
  require(current_ua_.size() == 2 * grid_ && switching_.size() == 2 * grid_,
          "current profile self-check: tree storage size mismatch");
  sync_tree();
  for (std::size_t i = 1; i < grid_; ++i) {
    require(current_ua_[i] ==
                std::max(current_ua_[2 * i], current_ua_[2 * i + 1]),
            "current profile self-check: stale current tree node");
    require(switching_[i] ==
                std::max(switching_[2 * i], switching_[2 * i + 1]),
            "current profile self-check: stale switching tree node");
  }
}

ModuleCurrentProfile profile_of(const TransitionTimes& tt,
                                std::span<const lib::CellParams> cells,
                                std::span<const netlist::GateId> gates) {
  ModuleCurrentProfile p(tt.grid_size());
  for (const netlist::GateId id : gates)
    p.add_gate(tt.at(id), cells[id].ipeak_ua);
  return p;
}

ModuleCurrentProfile circuit_profile(const netlist::Netlist& nl,
                                     const TransitionTimes& tt,
                                     std::span<const lib::CellParams> cells) {
  return profile_of(tt, cells, nl.logic_gates());
}

}  // namespace iddq::est
