#include "linalg/minimize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace tfc::linalg {
namespace {

TEST(Minimize, Quadratic) {
  const auto f = [](double x) { return (x - 2.5) * (x - 2.5) + 1.0; };
  auto r = minimize_scalar(f, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.5, 1e-3);
  EXPECT_NEAR(r.value, 1.0, 1e-6);
  // The final bracket holds the minimizer and is within the tolerance.
  EXPECT_LE(r.lo, 2.5);
  EXPECT_GE(r.hi, 2.5);
  EXPECT_LE(r.hi - r.lo, MinimizeOptions{}.x_tol);
}

TEST(Minimize, MinimumAtBoundary) {
  const auto f = [](double x) { return x; };  // decreasing toward lo
  auto r = minimize_scalar(f, 1.0, 4.0);
  EXPECT_NEAR(r.x, 1.0, 5e-3);
}

TEST(Minimize, HandlesInfinityRegion) {
  // Infeasible beyond 3.0 (runaway-style): the search must stay on the
  // feasible side and find the interior optimum at 2.0.
  const auto f = [](double x) {
    if (x > 3.0) return std::numeric_limits<double>::infinity();
    return (x - 2.0) * (x - 2.0);
  };
  auto r = minimize_scalar(f, 0.0, 6.0);
  EXPECT_NEAR(r.x, 2.0, 1e-2);
  EXPECT_LT(r.value, 1e-3);
}

TEST(Minimize, RespectsEvaluationBudget) {
  const auto f = [](double x) { return x * x; };
  MinimizeOptions o;
  o.max_evaluations = 5;
  o.x_tol = 1e-15;
  auto r = minimize_scalar(f, -1.0, 1.0, o);
  EXPECT_LE(r.evaluations, 5u);
  EXPECT_FALSE(r.converged);
}

TEST(Minimize, EmptyIntervalThrows) {
  const auto f = [](double x) { return x; };
  EXPECT_THROW(minimize_scalar(f, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(minimize_scalar(f, 2.0, 1.0), std::invalid_argument);
}

TEST(Minimize, ReportedValueMatchesEvaluatedPoint) {
  int calls = 0;
  const auto f = [&](double x) {
    ++calls;
    return std::abs(x - 0.3);
  };
  auto r = minimize_scalar(f, 0.0, 1.0);
  EXPECT_EQ(std::size_t(calls), r.evaluations);
  EXPECT_NEAR(r.value, std::abs(r.x - 0.3), 1e-15);
}

}  // namespace
}  // namespace tfc::linalg
