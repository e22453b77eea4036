#include "linalg/poly.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace catsched::linalg {

Poly poly_from_roots(const std::vector<std::complex<double>>& roots,
                     double tol) {
  // Multiply out (x - r_i) with complex arithmetic, then validate that
  // imaginary parts vanish (conjugate-closed root set).
  std::vector<std::complex<double>> c{1.0};
  for (const auto& r : roots) {
    std::vector<std::complex<double>> next(c.size() + 1, 0.0);
    for (std::size_t i = 0; i < c.size(); ++i) {
      next[i + 1] += c[i];
      next[i] -= r * c[i];
    }
    c = std::move(next);
  }
  Poly out(c.size());
  double scale = 0.0;
  for (const auto& v : c) scale = std::max(scale, std::abs(v));
  scale = std::max(scale, 1.0);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (std::abs(c[i].imag()) > tol * scale) {
      throw std::invalid_argument(
          "poly_from_roots: roots not closed under conjugation");
    }
    out[i] = c[i].real();
  }
  return out;
}

Matrix poly_eval(const Poly& p, const Matrix& a) {
  if (!a.is_square()) {
    throw std::invalid_argument("poly_eval: matrix must be square");
  }
  if (p.empty()) {
    throw std::invalid_argument("poly_eval: empty polynomial");
  }
  const std::size_t n = a.rows();
  Matrix acc(n, n);
  for (std::size_t i = 0; i < n; ++i) acc(i, i) = p.back();
  for (std::size_t k = p.size() - 1; k-- > 0;) {
    acc = acc * a;
    for (std::size_t i = 0; i < n; ++i) acc(i, i) += p[k];
  }
  return acc;
}

}  // namespace catsched::linalg
