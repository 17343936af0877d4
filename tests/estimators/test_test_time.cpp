#include "estimators/test_time.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace iddq::est {
namespace {

TEST(TestTime, OverheadFormula) {
  // D = 10 ns, D_BIC = 10.5 ns, settle = 2 ns: (12.5 - 10) / 10 = 0.25.
  EXPECT_NEAR(test_time_overhead(10000.0, 10500.0, 2000.0), 0.25, 1e-12);
}

TEST(TestTime, NoSettleNoDegradationIsZero) {
  EXPECT_DOUBLE_EQ(test_time_overhead(10000.0, 10000.0, 0.0), 0.0);
}

TEST(TestTime, RejectsInvalidInputs) {
  EXPECT_THROW((void)test_time_overhead(0.0, 1.0, 0.0), Error);
  EXPECT_THROW((void)test_time_overhead(10.0, 5.0, 0.0), Error);  // DBIC < D
  EXPECT_THROW((void)test_time_overhead(10.0, 11.0, -1.0), Error);
}

}  // namespace
}  // namespace iddq::est
