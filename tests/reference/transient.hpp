// Test-only reference for the delay model: a fixed-step RK4 integration of
// the second-order discharge network of electrical/delay_model.hpp. It
// plays the role SPICE plays in the paper: the closed-form waveform and
// 50% crossing of elec::DelayDegradationModel are checked against direct
// integration (tests/electrical/test_transient.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "electrical/delay_model.hpp"
#include "support/error.hpp"

namespace iddq::reference {

/// One RK4 trajectory sample.
struct TransientSample {
  double t_ps = 0.0;
  double v_out_mv = 0.0;
  double v_rail_mv = 0.0;
};

/// Integrates the discharge network from V_out = vdd_mv, V_rail = 0 for
/// `steps` steps of `dt_ps`.
inline std::vector<TransientSample> simulate_discharge(
    const elec::DelayModelInput& in, double vdd_mv, double dt_ps,
    std::size_t steps) {
  require(in.cs_ff > 0.0 && in.rs_kohm > 0.0,
          "simulate_discharge: needs Cs > 0 and Rs > 0 (use the analytic "
          "model for the degenerate cases)");
  require(dt_ps > 0.0 && steps > 0, "simulate_discharge: bad step parameters");
  struct State {
    double v_out;
    double v_rail;
  };
  const auto derivative = [&in](const State& s) {
    const double a = 1.0 / (in.rg_kohm * in.cg_ff);
    const double b = static_cast<double>(in.n) / (in.rg_kohm * in.cs_ff);
    const double c = 1.0 / (in.rs_kohm * in.cs_ff);
    return State{a * (s.v_rail - s.v_out),
                 b * (s.v_out - s.v_rail) - c * s.v_rail};
  };
  std::vector<TransientSample> out;
  out.reserve(steps + 1);
  State s{vdd_mv, 0.0};
  out.push_back({0.0, s.v_out, s.v_rail});
  for (std::size_t i = 1; i <= steps; ++i) {
    const State k1 = derivative(s);
    const State k2 = derivative({s.v_out + 0.5 * dt_ps * k1.v_out,
                                 s.v_rail + 0.5 * dt_ps * k1.v_rail});
    const State k3 = derivative({s.v_out + 0.5 * dt_ps * k2.v_out,
                                 s.v_rail + 0.5 * dt_ps * k2.v_rail});
    const State k4 = derivative(
        {s.v_out + dt_ps * k3.v_out, s.v_rail + dt_ps * k3.v_rail});
    s.v_out += dt_ps / 6.0 *
               (k1.v_out + 2.0 * k2.v_out + 2.0 * k3.v_out + k4.v_out);
    s.v_rail += dt_ps / 6.0 *
                (k1.v_rail + 2.0 * k2.v_rail + 2.0 * k3.v_rail + k4.v_rail);
    out.push_back({static_cast<double>(i) * dt_ps, s.v_out, s.v_rail});
  }
  return out;
}

/// First time at which v_out crosses below `level_mv` (linear interpolation
/// between samples); negative when the trajectory never crosses within the
/// simulated window.
inline double crossing_time_ps(const std::vector<TransientSample>& tr,
                               double level_mv) {
  for (std::size_t i = 1; i < tr.size(); ++i) {
    if (tr[i].v_out_mv <= level_mv && tr[i - 1].v_out_mv > level_mv) {
      const double frac = (tr[i - 1].v_out_mv - level_mv) /
                          (tr[i - 1].v_out_mv - tr[i].v_out_mv);
      return tr[i - 1].t_ps + frac * (tr[i].t_ps - tr[i - 1].t_ps);
    }
  }
  return -1.0;
}

}  // namespace iddq::reference
