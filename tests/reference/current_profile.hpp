// Test-only references for est::ModuleCurrentProfile: the historical
// O(grid) scans that the tournament tree and the copy-free overlay probes
// replaced. They read only the profile's public leaf rows. The production
// maxima must be bit-equal to these.
#pragma once

#include <algorithm>
#include <cstdint>

#include "estimators/current_profile.hpp"
#include "support/error.hpp"

namespace iddq::reference {

using OverlayMax = est::ModuleCurrentProfile::OverlayMax;

inline double scan_max_current_ua(const est::ModuleCurrentProfile& p) {
  double best = 0.0;
  for (const double v : p.current_ua()) best = std::max(best, v);
  return best;
}

inline std::uint32_t scan_max_switching(const est::ModuleCurrentProfile& p) {
  std::uint32_t best = 0;
  for (const std::uint32_t v : p.switching()) best = std::max(best, v);
  return best;
}

/// Maxima after add_gate(times, ipeak_ua), by a full pass over the grid.
inline OverlayMax scan_max_with_gate_added(const est::ModuleCurrentProfile& p,
                                           const DynamicBitset& times,
                                           double ipeak_ua) {
  const auto cur = p.current_ua();
  const auto sw = p.switching();
  IDDQ_ASSERT(times.size() == cur.size());
  OverlayMax best;
  std::size_t next = times.find_first();
  for (std::size_t t = 0; t < cur.size(); ++t) {
    double i = cur[t];
    std::uint32_t n = sw[t];
    if (t == next) {
      i += ipeak_ua;
      n += 1;
      next = times.find_next(t);
    }
    best.current_ua = std::max(best.current_ua, i);
    best.switching = std::max(best.switching, n);
  }
  return best;
}

/// Maxima after remove_gate(times, ipeak_ua), by a full pass over the grid.
inline OverlayMax scan_max_with_gate_removed(
    const est::ModuleCurrentProfile& p, const DynamicBitset& times,
    double ipeak_ua) {
  const auto cur = p.current_ua();
  const auto sw = p.switching();
  IDDQ_ASSERT(times.size() == cur.size());
  OverlayMax best;
  std::size_t next = times.find_first();
  for (std::size_t t = 0; t < cur.size(); ++t) {
    double i = cur[t];
    std::uint32_t n = sw[t];
    if (t == next) {
      IDDQ_ASSERT(n > 0);
      n -= 1;
      i = n == 0 ? 0.0 : i - ipeak_ua;  // remove_gate's residue cancel
      next = times.find_next(t);
    }
    best.current_ua = std::max(best.current_ua, i);
    best.switching = std::max(best.switching, n);
  }
  return best;
}

/// The profile's own self_check (tree-node invariants), then its O(1)
/// maxima against the scans. Throws iddq::Error on any mismatch.
inline void self_check_against_scan(const est::ModuleCurrentProfile& p) {
  p.self_check();
  require(p.max_current_ua() == scan_max_current_ua(p),
          "current profile: tree max != scanned max current");
  require(p.max_switching() == scan_max_switching(p),
          "current profile: tree max != scanned max switching");
}

}  // namespace iddq::reference
