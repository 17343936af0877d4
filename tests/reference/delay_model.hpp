// Test-only reference for elec::DelayDegradationModel::t50_ps: the
// historical bracket-and-bisect 50% crossing. It doubles the quasi-static
// bound until the waveform falls below 50%, then bisects with up to 100
// waveform evaluations. The waveform comes from the public v_out_norm,
// which computes the same closed form as the model's internal solver, so
// every value is bit-identical to the in-library bisection this replaced.
// v_out_norm re-solves the 2x2 system on each call, which makes this
// version slower than that one was.
#pragma once

#include "electrical/delay_model.hpp"

namespace iddq::reference {

inline double t50_ps_bisect(const elec::DelayModelInput& in) {
  constexpr double kLn2 = 0.6931471805599453;
  constexpr double kTiny = 1e-12;
  const double t50_nominal = kLn2 * in.rg_kohm * in.cg_ff;
  if (in.rs_kohm <= kTiny) return t50_nominal;  // rail pinned to ground
  const double k = static_cast<double>(in.n) * in.rs_kohm / in.rg_kohm;
  if (in.cs_ff <= kTiny) return t50_nominal * (1.0 + k);
  const auto v = [&in](double t_ps) {
    return elec::DelayDegradationModel::v_out_norm(in, t_ps);
  };
  double lo = 0.0;
  double hi = t50_nominal * (1.0 + k);
  for (int guard = 0; v(hi) > 0.5 && guard < 64; ++guard) hi *= 2.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (v(mid) > 0.5)
      lo = mid;
    else
      hi = mid;
    if ((hi - lo) <= 1e-12 * hi) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace iddq::reference
