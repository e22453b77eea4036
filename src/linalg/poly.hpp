#pragma once
/// \file poly.hpp
/// \brief Real polynomial utilities: building a polynomial from desired
///        roots (pole placement) and evaluating it at a matrix (Ackermann).

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace catsched::linalg {

/// A real polynomial c[0] + c[1] x + ... + c[n] x^n stored by ascending
/// degree. Used as a plain data carrier.
using Poly = std::vector<double>;

/// Monic polynomial with the given roots. The root set must be closed under
/// conjugation (imaginary parts cancel within \p tol); otherwise throws
/// std::invalid_argument. Returned ascending-degree, leading coeff 1.
Poly poly_from_roots(const std::vector<std::complex<double>>& roots,
                     double tol = 1e-8);

/// Evaluate p at a square matrix: p(A) = c0 I + c1 A + ... (Horner form).
/// \throws std::invalid_argument if not square or p empty.
Matrix poly_eval(const Poly& p, const Matrix& a);

}  // namespace catsched::linalg
