#include "core/convergence.h"

#include <gtest/gtest.h>

namespace zombie {
namespace {

constexpr size_t kWindow = ConvergenceDetector::kWindow;
constexpr double kEpsilon = ConvergenceDetector::kEpsilon;

TEST(ConvergenceTest, NeverConvergedBeforeWindowFills) {
  ConvergenceDetector d;
  for (size_t i = 0; i + 1 < kWindow; ++i) {
    d.Add(0.5);
    EXPECT_FALSE(d.converged()) << "after " << i + 1;
  }
  d.Add(0.5);
  EXPECT_TRUE(d.converged());
}

TEST(ConvergenceTest, RisingCurveDoesNot) {
  ConvergenceDetector d;
  for (int i = 0; i < 40; ++i) {
    d.Add(0.05 * i);
    EXPECT_FALSE(d.converged()) << "step " << i;
  }
}

TEST(ConvergenceTest, SpreadWithinEpsilonConverges) {
  ConvergenceDetector d;
  for (size_t i = 0; i < kWindow; ++i) {
    d.Add(i % 2 == 0 ? 0.50 : 0.50 + 0.8 * kEpsilon);
  }
  EXPECT_TRUE(d.converged());
  // A jump re-opens the window.
  d.Add(0.50 + 2.0 * kEpsilon);
  EXPECT_FALSE(d.converged());
}

TEST(ConvergenceTest, OldValuesAgeOut) {
  ConvergenceDetector d;
  d.Add(0.1);  // will age out
  for (size_t i = 0; i + 1 < kWindow; ++i) d.Add(0.5);
  EXPECT_FALSE(d.converged());
  d.Add(0.5);  // window now all 0.5
  EXPECT_TRUE(d.converged());
}

}  // namespace
}  // namespace zombie
