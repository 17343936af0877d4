// Fixed-step RK4 integration of the quiescent current decay.
//
// Plays the role SPICE plays in the paper: the settling model (settling.hpp)
// is *calibrated* against transient simulations rather than hard-coding the
// analytic answer. (The RK4 cross-check of the closed-form delay model
// lives with the tests, in tests/reference/transient.hpp.)
#pragma once

namespace iddq::elec {

/// Integrates an exponential current decay i' = -i/tau (the quiescent
/// settling of a module current toward its leakage floor) and returns the
/// time at which i(t) first falls below `i_th_ua`. Used by the settling-model
/// calibration. Returns a negative value when i0 <= i_th.
[[nodiscard]] double simulate_decay_time_ps(double i0_ua, double i_th_ua,
                                            double tau_ps, double dt_ps);

}  // namespace iddq::elec
