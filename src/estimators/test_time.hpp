// Test-application-time estimator (paper section 3.4).
//
// The partitioning does not change the logic, so the precomputed IDDQ test
// vector set is unchanged; what changes is the time *per vector*: after
// applying a vector the responses must propagate (D_BIC) and then the
// transient current must decay and be sensed (Delta(tau_i), section 3.4's
// SPICE-calibrated term). All sensors observe in parallel, so the slowest
// module dominates:
//
//   T_test,BIC = N_vec * ( D_BIC + max_i Delta(tau_i) )
//   T_test,0   = N_vec * D
//   c4         = (T_test,BIC - T_test,0) / T_test,0
//
// The vector count cancels in the ratio.
#pragma once

#include <span>

namespace iddq::est {

/// c4 from the three time components.
[[nodiscard]] double test_time_overhead(double d_nominal_ps, double d_bic_ps,
                                        double settle_max_ps);

}  // namespace iddq::est
