#pragma once
/// \file lu.hpp
/// \brief LU decomposition with partial pivoting: linear solves, inverse,
///        determinant, and rank estimation for small dense systems.

#include <array>
#include <cstdint>

#include "linalg/matrix.hpp"

namespace catsched::linalg {

/// LU factorization with partial pivoting of a square matrix: P*A = L*U.
///
/// Built once, reused for repeated solves against different right-hand
/// sides (the schedule evaluator solves the same steady-state system for
/// several references). A workspace LU is refactored in place and solves
/// into a caller's buffer, so a hot loop that factors one system per call
/// allocates nothing once its buffers have grown to size.
class LU {
public:
  /// The factorization of the 0 x 0 matrix: a workspace to factor() into.
  LU() = default;

  /// Factor \p a. \throws std::invalid_argument if not square.
  explicit LU(const Matrix& a) { factor(a); }

  /// Factor \p a in place of the current factorization, reusing its
  /// storage. \throws std::invalid_argument if not square.
  void factor(const Matrix& a);

  /// True if a pivot fell below the singularity threshold.
  bool singular() const noexcept { return singular_; }

  /// Solve A x = b for one or many right-hand sides (b: n x k).
  /// \throws std::invalid_argument on dimension mismatch,
  ///         std::domain_error if the matrix is singular.
  Matrix solve(const Matrix& b) const;

  /// solve() into \p x, which is re-dimensioned to n x k and overwritten
  /// (same arithmetic). \p x must not alias \p b. Same exceptions.
  void solve_into(Matrix& x, const Matrix& b) const;

  /// Determinant of A (0.0 when flagged singular).
  double determinant() const noexcept { return det_; }

  /// Inverse of A. \throws std::domain_error if singular.
  Matrix inverse() const;

private:
  /// Row permutation with the same small-buffer strategy as Matrix: the
  /// design hot path factors 2x2..8x8 systems millions of times per
  /// search, so pivots of small systems live inline (no allocation);
  /// larger systems spill to the heap. Selecting the
  /// buffer per access (rather than keeping a pointer to the active one)
  /// lets the implicit copy/move special members stay correct without a
  /// user-defined rebind step.
  std::uint32_t& piv(std::size_t i) noexcept {
    return piv_spill_.empty() ? piv_inline_[i] : piv_spill_[i];
  }
  std::uint32_t piv(std::size_t i) const noexcept {
    return piv_spill_.empty() ? piv_inline_[i] : piv_spill_[i];
  }

  Matrix lu_;                    // packed L (unit diag, below) and U (above)
  // Value-initialized so the implicit copy never reads the indeterminate
  // tail beyond n pivots (the factorization only writes the first n).
  std::array<std::uint32_t, Matrix::kInlineCapacity> piv_inline_{};
  std::vector<std::uint32_t> piv_spill_;  // used when n > kInlineCapacity
  bool singular_ = false;
  double det_ = 0.0;
};

/// One-shot convenience: solve A x = b.
Matrix solve(const Matrix& a, const Matrix& b);

/// One-shot convenience: inverse of A.
Matrix inverse(const Matrix& a);

/// One-shot convenience: determinant of A.
double determinant(const Matrix& a);

/// Numerical rank via row-echelon elimination with the given relative
/// tolerance (used by controllability tests).
std::size_t rank(const Matrix& a, double rel_tol = 1e-10);

}  // namespace catsched::linalg
