#pragma once
// Matrix comparisons for the numerical tests: entry-wise equality within
// an absolute tolerance.

#include <cmath>
#include <cstddef>

#include "linalg/matrix.hpp"

namespace catsched::testref {

/// Same dimensions, and every entry within \p tol of its counterpart.
inline bool approx_equal(const linalg::Matrix& a, const linalg::Matrix& b,
                         double tol = 1e-9) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - b(i, j)) > tol) return false;
    }
  }
  return true;
}

}  // namespace catsched::testref
