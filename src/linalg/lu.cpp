#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace catsched::linalg {

namespace {
constexpr double kPivotEps = 1e-13;
}  // namespace

LU::LU(const Matrix& a) : lu_(a) {
  if (!a.is_square()) {
    throw std::invalid_argument("LU: matrix must be square");
  }
  const std::size_t n = a.rows();
  piv_spill_.resize(n > piv_inline_.size() ? n : 0);
  for (std::size_t i = 0; i < n; ++i) piv(i) = static_cast<std::uint32_t>(i);
  // Scale reference for the singularity threshold.
  const double scale = std::max(lu_.max_abs(), 1.0);
  double det = 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest |entry| in column k at/below row k.
    std::size_t p = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best <= kPivotEps * scale) {
      singular_ = true;
      det_ = 0.0;
      continue;  // keep factoring remaining columns for rank-ish uses
    }
    if (p != k) {
      std::swap(piv(p), piv(k));
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(p, j), lu_(k, j));
      det = -det;
    }
    det *= lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = lu_(i, k) / lu_(k, k);
      lu_(i, k) = m;
      if (m == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu_(i, j) -= m * lu_(k, j);
      }
    }
  }
  if (!singular_) det_ = det;
}

Matrix LU::solve(const Matrix& b) const {
  const std::size_t n = lu_.rows();
  if (b.rows() != n) {
    throw std::invalid_argument("LU::solve: rhs row count mismatch");
  }
  if (singular_) {
    throw std::domain_error("LU::solve: matrix is singular");
  }
  const std::size_t k = b.cols();
  Matrix x(n, k);
  // Apply permutation: x = P*b.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) x(i, j) = b(piv(i), j);
  }
  // Forward substitution with unit-lower L.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t c = 0; c < i; ++c) {
      const double m = lu_(i, c);
      if (m == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) x(i, j) -= m * x(c, j);
    }
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t c = ii + 1; c < n; ++c) {
      const double m = lu_(ii, c);
      if (m == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) x(ii, j) -= m * x(c, j);
    }
    const double d = lu_(ii, ii);
    for (std::size_t j = 0; j < k; ++j) x(ii, j) /= d;
  }
  return x;
}

}  // namespace catsched::linalg
