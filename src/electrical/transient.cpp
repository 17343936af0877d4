#include "electrical/transient.hpp"

#include <cmath>

#include "support/error.hpp"

namespace iddq::elec {

double simulate_decay_time_ps(double i0_ua, double i_th_ua, double tau_ps,
                              double dt_ps) {
  require(tau_ps > 0.0 && dt_ps > 0.0, "simulate_decay: bad time constants");
  require(i_th_ua > 0.0, "simulate_decay: threshold must be positive");
  if (i0_ua <= i_th_ua) return -1.0;
  double i = i0_ua;
  double t = 0.0;
  // RK4 on i' = -i/tau (scalar); the analytic answer is tau*ln(i0/ith) and
  // the tests verify agreement.
  const double max_t = tau_ps * 80.0;
  while (i > i_th_ua && t < max_t) {
    const double k1 = -i / tau_ps;
    const double k2 = -(i + 0.5 * dt_ps * k1) / tau_ps;
    const double k3 = -(i + 0.5 * dt_ps * k2) / tau_ps;
    const double k4 = -(i + dt_ps * k3) / tau_ps;
    const double i_next = i + dt_ps / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    if (i_next <= i_th_ua) {
      const double frac = (i - i_th_ua) / (i - i_next);
      return t + frac * dt_ps;
    }
    i = i_next;
    t += dt_ps;
  }
  return t;
}

}  // namespace iddq::elec
