#include "electrical/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "reference/transient.hpp"
#include "support/error.hpp"

namespace iddq::elec {
namespace {

using reference::crossing_time_ps;
using reference::simulate_discharge;

DelayModelInput typical() {
  DelayModelInput in;
  in.rs_kohm = 0.05;
  in.cs_ff = 1500.0;
  in.cg_ff = 15.0;
  in.rg_kohm = 25.0;
  in.n = 40;
  return in;
}

TEST(Transient, Rk4MatchesClosedFormWaveform) {
  const auto in = typical();
  const auto tr = simulate_discharge(in, 5000.0, 0.5, 4000);
  for (std::size_t i = 0; i < tr.size(); i += 200) {
    const double analytic =
        5000.0 * DelayDegradationModel::v_out_norm(in, tr[i].t_ps);
    EXPECT_NEAR(tr[i].v_out_mv, analytic, 5000.0 * 1e-6)
        << "t=" << tr[i].t_ps;
  }
}

TEST(Transient, Rk4CrossingMatchesClosedFormT50) {
  const auto in = typical();
  const auto tr = simulate_discharge(in, 5000.0, 0.2, 20000);
  const double t50_sim = crossing_time_ps(tr, 2500.0);
  const double t50_model = DelayDegradationModel::t50_ps(in);
  ASSERT_GT(t50_sim, 0.0);
  EXPECT_NEAR(t50_sim, t50_model, t50_model * 1e-3);
}

TEST(Transient, RailBouncesThenRecovers) {
  const auto in = typical();
  const auto tr = simulate_discharge(in, 5000.0, 0.5, 8000);
  double rail_peak = 0.0;
  for (const auto& s : tr) rail_peak = std::max(rail_peak, s.v_rail_mv);
  EXPECT_GT(rail_peak, 0.0);               // the rail does perturb
  EXPECT_LT(rail_peak, 5000.0);            // but never to the supply
  EXPECT_LT(tr.back().v_rail_mv, rail_peak);  // and it recovers
}

TEST(Transient, CrossingReturnsNegativeWhenNotReached) {
  const auto in = typical();
  const auto tr = simulate_discharge(in, 5000.0, 0.1, 10);  // far too short
  EXPECT_LT(crossing_time_ps(tr, 100.0), 0.0);
}

TEST(Transient, DecayTimeMatchesAnalytic) {
  // i(t) = i0 * exp(-t/tau) -> t_cross = tau * ln(i0/ith).
  for (const double ratio : {10.0, 1e3, 1e6}) {
    const double tau = 50.0;
    const double t = simulate_decay_time_ps(ratio, 1.0, tau, 1e-3 * tau);
    EXPECT_NEAR(t, tau * std::log(ratio), tau * std::log(ratio) * 1e-4)
        << "ratio=" << ratio;
  }
}

TEST(Transient, DecayBelowThresholdIsImmediate) {
  EXPECT_LT(simulate_decay_time_ps(0.5, 1.0, 50.0, 0.1), 0.0);
}

TEST(Transient, RejectsDegenerateInputs) {
  auto in = typical();
  in.cs_ff = 0.0;
  EXPECT_THROW((void)simulate_discharge(in, 5000.0, 0.5, 10), Error);
  EXPECT_THROW((void)simulate_decay_time_ps(10.0, 1.0, 0.0, 0.1), Error);
  EXPECT_THROW((void)simulate_decay_time_ps(10.0, 0.0, 5.0, 0.1), Error);
}

}  // namespace
}  // namespace iddq::elec
