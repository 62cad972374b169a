#include "linalg/minimize.h"

#include <stdexcept>

namespace tfc::linalg {

namespace {

constexpr double kInvPhi = 0.6180339887498949;

}  // namespace

ScalarMinimum minimize_scalar(const std::function<double(double)>& f, double lo,
                              double hi, const MinimizeOptions& options) {
  if (!(lo < hi)) throw std::invalid_argument("minimize_scalar: empty interval");
  ScalarMinimum res;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  res.evaluations = 2;
  while (b - a > options.x_tol && res.evaluations < options.max_evaluations) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
    ++res.evaluations;
  }
  res.converged = (b - a) <= options.x_tol;
  res.lo = a;
  res.hi = b;
  if (f1 <= f2) {
    res.x = x1;
    res.value = f1;
  } else {
    res.x = x2;
    res.value = f2;
  }
  return res;
}

}  // namespace tfc::linalg
