#pragma once
/// \file lu.hpp
/// \brief LU decomposition with partial pivoting: linear solves and the
///        determinant for small dense systems.

#include <array>
#include <cstdint>

#include "linalg/matrix.hpp"

namespace catsched::linalg {

/// LU factorization with partial pivoting of a square matrix: P*A = L*U.
///
/// Built once, reused for repeated solves against different right-hand
/// sides (one factorization serves every column of b).
class LU {
public:
  /// Factor \p a. \throws std::invalid_argument if not square.
  explicit LU(const Matrix& a);

  /// True if a pivot fell below the singularity threshold.
  bool singular() const noexcept { return singular_; }

  /// Solve A x = b for one or many right-hand sides (b: n x k).
  /// \throws std::invalid_argument on dimension mismatch,
  ///         std::domain_error if the matrix is singular.
  Matrix solve(const Matrix& b) const;

  /// Determinant of A (0.0 when flagged singular).
  double determinant() const noexcept { return det_; }

private:
  /// Row permutation with the same small-buffer strategy as Matrix: the
  /// control kernel factors small systems (expm's Pade solves, the
  /// steady state of a design problem), so pivots of small systems live
  /// inline (no allocation); larger systems spill to the heap. Selecting the
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

}  // namespace catsched::linalg
