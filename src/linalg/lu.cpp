#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace catsched::linalg {

namespace {
constexpr double kPivotEps = 1e-13;
}  // namespace

void LU::factor(const Matrix& a) {
  if (!a.is_square()) {
    throw std::invalid_argument("LU: matrix must be square");
  }
  lu_ = a;
  singular_ = false;
  det_ = 0.0;
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
  Matrix x;
  solve_into(x, b);
  return x;
}

void LU::solve_into(Matrix& x, const Matrix& b) const {
  const std::size_t n = lu_.rows();
  if (b.rows() != n) {
    throw std::invalid_argument("LU::solve: rhs row count mismatch");
  }
  if (singular_) {
    throw std::domain_error("LU::solve: matrix is singular");
  }
  const std::size_t k = b.cols();
  x.resize(n, k);
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
}

Matrix LU::inverse() const {
  return solve(Matrix::identity(lu_.rows()));
}

Matrix solve(const Matrix& a, const Matrix& b) { return LU(a).solve(b); }

Matrix inverse(const Matrix& a) { return LU(a).inverse(); }

double determinant(const Matrix& a) { return LU(a).determinant(); }

std::size_t rank(const Matrix& a, double rel_tol) {
  Matrix m = a;
  const std::size_t nr = m.rows();
  const std::size_t nc = m.cols();
  const double scale = std::max(m.max_abs(), 1.0);
  const double tol = rel_tol * scale;
  std::size_t rank = 0;
  std::size_t row = 0;
  for (std::size_t col = 0; col < nc && row < nr; ++col) {
    // Find pivot in this column.
    std::size_t p = row;
    double best = std::abs(m(row, col));
    for (std::size_t i = row + 1; i < nr; ++i) {
      const double v = std::abs(m(i, col));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best <= tol) continue;
    if (p != row) {
      for (std::size_t j = 0; j < nc; ++j) std::swap(m(p, j), m(row, j));
    }
    for (std::size_t i = row + 1; i < nr; ++i) {
      const double f = m(i, col) / m(row, col);
      if (f == 0.0) continue;
      for (std::size_t j = col; j < nc; ++j) m(i, j) -= f * m(row, j);
    }
    ++rank;
    ++row;
  }
  return rank;
}

}  // namespace catsched::linalg
