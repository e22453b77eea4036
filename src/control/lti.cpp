#include "control/lti.hpp"

#include <stdexcept>

#include "linalg/lu.hpp"

namespace catsched::control {

void ContinuousLTI::validate() const {
  if (!a.is_square() || a.rows() == 0) {
    throw std::invalid_argument("ContinuousLTI: A must be square, non-empty");
  }
  if (b.rows() != a.rows() || b.cols() != 1) {
    throw std::invalid_argument("ContinuousLTI: B must be l x 1");
  }
  if (c.rows() != 1 || c.cols() != a.cols()) {
    throw std::invalid_argument("ContinuousLTI: C must be 1 x l");
  }
}

Equilibrium equilibrium_at(const ContinuousLTI& plant, double y_eq) {
  plant.validate();
  const std::size_t l = plant.order();
  Matrix m(l + 1, l + 1);
  m.set_block(0, 0, plant.a);
  m.set_block(0, l, plant.b);
  m.set_block(l, 0, plant.c);
  Matrix rhs(l + 1, 1);
  rhs(l, 0) = y_eq;
  linalg::LU lu(m);
  if (lu.singular()) {
    throw std::domain_error(
        "equilibrium_at: plant has no unique equilibrium at this output");
  }
  const Matrix sol = lu.solve(rhs);
  Equilibrium eq;
  eq.x = sol.block(0, 0, l, 1);
  eq.u = sol(l, 0);
  return eq;
}

Matrix controllability_matrix(const Matrix& a, const Matrix& b) {
  if (!a.is_square() || b.rows() != a.rows() || b.cols() != 1) {
    throw std::invalid_argument("controllability_matrix: bad dimensions");
  }
  const std::size_t l = a.rows();
  Matrix ctrb(l, l);
  Matrix col = b;
  for (std::size_t j = 0; j < l; ++j) {
    ctrb.set_block(0, j, col);
    col = a * col;
  }
  return ctrb;
}

}  // namespace catsched::control
