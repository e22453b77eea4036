#pragma once
/// \file lti.hpp
/// \brief Continuous-time LTI SISO plant models (paper eq. (1) before
///        discretization), equilibria, and the controllability matrix.

#include "linalg/matrix.hpp"

namespace catsched::control {

using linalg::Matrix;

/// Continuous-time LTI single-input single-output plant
///   dx/dt = A x + B u,   y = C x.
struct ContinuousLTI {
  Matrix a;  ///< l x l state matrix
  Matrix b;  ///< l x 1 input matrix
  Matrix c;  ///< 1 x l output matrix

  /// Number of states l.
  std::size_t order() const noexcept { return a.rows(); }

  /// \throws std::invalid_argument if dimensions are inconsistent.
  void validate() const;
};

/// Constant operating point (x_eq, u_eq) holding output y_eq:
/// A x + B u = 0 and C x = y_eq.
struct Equilibrium {
  Matrix x;   ///< l x 1 equilibrium state
  double u;   ///< equilibrium input
};

/// Solve for the equilibrium at output level \p y_eq via the bordered
/// system [[A, B], [C, 0]] [x; u] = [0; y_eq]. Works for plants with
/// integrators (singular A) as long as the bordered matrix is regular.
/// \throws std::domain_error if the plant has no unique equilibrium at
///         this output level.
Equilibrium equilibrium_at(const ContinuousLTI& plant, double y_eq);

/// Controllability matrix [B, AB, ..., A^{l-1}B] for a (possibly discrete)
/// pair. \throws std::invalid_argument on dimension mismatch.
Matrix controllability_matrix(const Matrix& a, const Matrix& b);

}  // namespace catsched::control
