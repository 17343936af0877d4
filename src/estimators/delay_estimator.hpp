// Critical-path delay estimation (paper section 3.2).
//
//   c2 = (D_BIC - D) / D
//
// where D is the longest-path delay with nominal gate delays D(g) and D_BIC
// uses degraded delays D_BIC(g) = D(g) * delta(g). The degradation factor of
// a gate depends on its module's sensor (R_s, C_s) and on the number of
// simultaneously switching module gates n(t). The evaluator charges every
// gate its module's *peak* simultaneity n_max,m — the paper's pessimistic
// treatment of the time-grid functions delta(g, t) — which also makes c2
// nearly partition-invariant (n_max * R_s self-normalises; see
// partition/evaluator.cpp).
#pragma once

#include <span>
#include <vector>

#include "library/cell.hpp"
#include "netlist/netlist.hpp"

namespace iddq::est {

/// Longest path with nominal delays, in ps.
[[nodiscard]] double nominal_critical_path_ps(
    const netlist::Netlist& nl, std::span<const lib::CellParams> cells);

/// Longest path with per-gate degraded delays D(g) * delta[g], in ps.
/// `delta` is indexed by GateId; entries for primary inputs are ignored.
[[nodiscard]] double degraded_critical_path_ps(
    const netlist::Netlist& nl, std::span<const lib::CellParams> cells,
    std::span<const double> delta);

}  // namespace iddq::est
