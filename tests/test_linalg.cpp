// Unit and property tests for the dense linear-algebra substrate.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>

#include "linalg/eig.hpp"
#include "linalg/expm.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/poly.hpp"
#include "linalg_reference.hpp"

using namespace catsched::linalg;
using catsched::testref::approx_equal;

namespace {

/// Sum of the diagonal entries of a square matrix.
double trace(const Matrix& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) s += a(i, i);
  return s;
}

/// Characteristic polynomial det(xI - A) via the Faddeev–LeVerrier
/// recursion (ascending degree, monic): the reference the eigensolver and
/// the matrix polynomial evaluation are checked against.
Poly char_poly(const Matrix& a) {
  const std::size_t n = a.rows();
  // M_0 = I, c_n = 1; c_{n-k} = -trace(A M_{k-1}) / k; M_k = A M_{k-1} +
  // c_{n-k} I.
  Poly c(n + 1, 0.0);
  c[n] = 1.0;
  Matrix m = Matrix::identity(n);
  for (std::size_t k = 1; k <= n; ++k) {
    Matrix am = a * m;
    const double ck = -trace(am) / static_cast<double>(k);
    c[n - k] = ck;
    m = am;
    for (std::size_t i = 0; i < n; ++i) m(i, i) += ck;
  }
  return c;
}

/// p at a complex scalar (Horner form).
std::complex<double> poly_eval(const Poly& p, std::complex<double> x) {
  std::complex<double> acc = 0.0;
  for (std::size_t k = p.size(); k-- > 0;) acc = acc * x + p[k];
  return acc;
}

/// The inverse of A through its LU factorization.
Matrix inverse(const Matrix& a) {
  return LU(a).solve(Matrix::identity(a.rows()));
}

Matrix random_matrix(std::size_t n, std::uint64_t seed, double scale = 1.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-scale, scale);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m(i, j) = d(rng);
  }
  return m;
}

}  // namespace

// ---------------------------------------------------------------- Matrix

TEST(Matrix, ConstructionAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW((Matrix{{1.0}, {2.0, 3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(trace(i3), 3.0);
}

TEST(Matrix, ArithmeticAndDimensionChecks) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_TRUE(approx_equal(a + b, Matrix{{6.0, 8.0}, {10.0, 12.0}}));
  EXPECT_TRUE(approx_equal(b - a, Matrix{{4.0, 4.0}, {4.0, 4.0}}));
  EXPECT_TRUE(approx_equal(a * 2.0, Matrix{{2.0, 4.0}, {6.0, 8.0}}));
  EXPECT_TRUE(approx_equal(-a, Matrix{{-1.0, -2.0}, {-3.0, -4.0}}));
  const Matrix ab = a * b;
  EXPECT_TRUE(approx_equal(ab, Matrix{{19.0, 22.0}, {43.0, 50.0}}));
  Matrix c(3, 2);
  EXPECT_THROW(a + c, std::invalid_argument);
  EXPECT_THROW(a * Matrix(3, 3), std::invalid_argument);
}

TEST(Matrix, Blocks) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_TRUE(approx_equal(a.block(0, 1, 2, 1), Matrix{{2.0}, {4.0}}));
  EXPECT_THROW(a.block(1, 1, 2, 1), std::out_of_range);
  Matrix z(2, 2);
  z.set_block(0, 0, Matrix{{9.0}});
  EXPECT_DOUBLE_EQ(z(0, 0), 9.0);
}

TEST(Matrix, NormsAndTranspose) {
  Matrix a{{3.0, -4.0}, {0.0, 0.0}};
  EXPECT_DOUBLE_EQ(a.norm_1(), 4.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  EXPECT_TRUE(approx_equal(a.transposed(),
                           Matrix{{3.0, 0.0}, {-4.0, 0.0}}));
}

// -------------------------------------------------------------------- LU

TEST(LU, SolveRoundTrip) {
  const Matrix a{{4.0, 2.0, 0.6}, {2.0, 5.0, 1.0}, {0.6, 1.0, 3.0}};
  const Matrix b{{1.0}, {-2.0}, {0.5}};
  const Matrix x = LU(a).solve(b);
  EXPECT_TRUE(approx_equal(a * x, b, 1e-10));
}

TEST(LU, InverseAndDeterminant) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  EXPECT_NEAR(LU(a).determinant(), 5.0, 1e-12);
  EXPECT_TRUE(approx_equal(a * inverse(a), Matrix::identity(2), 1e-12));
}

TEST(LU, SingularDetected) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  LU lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
  EXPECT_THROW(lu.solve(Matrix{{1.0}, {1.0}}), std::domain_error);
  EXPECT_THROW(LU(Matrix(2, 3)), std::invalid_argument);
}

TEST(LU, PropertyRandomRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t n = 1 + seed % 7;
    Matrix a = random_matrix(n, seed);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;  // well-conditioned
    const Matrix b = random_matrix(n, seed + 1000).block(0, 0, n, 1);
    const Matrix x = LU(a).solve(b);
    EXPECT_TRUE(approx_equal(a * x, b, 1e-8)) << "seed " << seed;
    EXPECT_TRUE(approx_equal(a * inverse(a), Matrix::identity(n), 1e-8));
  }
}

// ------------------------------------------------------------ Polynomials

TEST(Poly, FromRootsRealAndComplex) {
  // (x - 1)(x - 2) = x^2 - 3x + 2
  const Poly p = poly_from_roots({{1.0, 0.0}, {2.0, 0.0}});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_NEAR(p[0], 2.0, 1e-12);
  EXPECT_NEAR(p[1], -3.0, 1e-12);
  EXPECT_NEAR(p[2], 1.0, 1e-12);
  // Conjugate pair: (x - (1+2i))(x - (1-2i)) = x^2 - 2x + 5
  const Poly q = poly_from_roots({{1.0, 2.0}, {1.0, -2.0}});
  EXPECT_NEAR(q[0], 5.0, 1e-12);
  EXPECT_NEAR(q[1], -2.0, 1e-12);
  // Non-conjugate-closed set must throw.
  EXPECT_THROW(poly_from_roots({{1.0, 2.0}}), std::invalid_argument);
}

TEST(Poly, CayleyHamiltonProperty) {
  // p(A) = 0 for the characteristic polynomial of A.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t n = 2 + seed % 4;
    const Matrix a = random_matrix(n, seed);
    const Matrix z = poly_eval(char_poly(a), a);
    EXPECT_LT(z.max_abs(), 1e-8) << "seed " << seed;
  }
}

TEST(Poly, EvalRejectsEmptyPolynomial) {
  EXPECT_THROW(poly_eval(Poly{}, Matrix::identity(2)), std::invalid_argument);
}

// ------------------------------------------------------------ Eigenvalues

TEST(Eig, DiagonalMatrix) {
  auto ev = eigenvalues(
      Matrix{{3.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, 0.5}});
  std::vector<double> re;
  for (auto& e : ev) {
    EXPECT_NEAR(e.imag(), 0.0, 1e-10);
    re.push_back(e.real());
  }
  std::sort(re.begin(), re.end());
  EXPECT_NEAR(re[0], -1.0, 1e-10);
  EXPECT_NEAR(re[1], 0.5, 1e-10);
  EXPECT_NEAR(re[2], 3.0, 1e-10);
}

TEST(Eig, ComplexPairFromRotation) {
  // Rotation-scaling matrix: eigenvalues 0.8 e^{+-i 0.7}.
  const double rho = 0.8;
  const double th = 0.7;
  Matrix a{{rho * std::cos(th), -rho * std::sin(th)},
           {rho * std::sin(th), rho * std::cos(th)}};
  auto ev = eigenvalues(a);
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_NEAR(std::abs(ev[0]), rho, 1e-10);
  EXPECT_NEAR(std::abs(ev[0].imag()), rho * std::sin(th), 1e-10);
  EXPECT_NEAR(ev[0].real(), rho * std::cos(th), 1e-10);
  EXPECT_NEAR(spectral_radius(a), rho, 1e-10);
  EXPECT_LT(spectral_radius(a), 1.0);
}

TEST(Eig, AgreesWithCharPolyRoots) {
  // Property: QR eigenvalues are roots of the characteristic polynomial.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const std::size_t n = 2 + seed % 5;
    const Matrix a = random_matrix(n, seed);
    const Poly cp = char_poly(a);
    for (const auto& e : eigenvalues(a)) {
      EXPECT_LT(std::abs(poly_eval(cp, e)), 1e-6 * std::pow(2.0, n))
          << "seed " << seed;
    }
  }
}

TEST(Eig, TraceAndDetInvariants) {
  // Property: sum(eig) = trace, prod(eig) = det.
  for (std::uint64_t seed = 100; seed <= 110; ++seed) {
    const std::size_t n = 2 + seed % 4;
    const Matrix a = random_matrix(n, seed);
    auto ev = eigenvalues(a);
    std::complex<double> sum = 0.0;
    std::complex<double> prod = 1.0;
    for (auto& e : ev) {
      sum += e;
      prod *= e;
    }
    EXPECT_NEAR(sum.real(), trace(a), 1e-7) << "seed " << seed;
    EXPECT_NEAR(sum.imag(), 0.0, 1e-7);
    EXPECT_NEAR(prod.real(), LU(a).determinant(), 1e-6) << "seed " << seed;
  }
}

TEST(Eig, HessenbergPreservesEigenvalues) {
  const Matrix a = random_matrix(5, 42);
  const Matrix h = hessenberg(a);
  // Hessenberg structure: zero below the first subdiagonal.
  for (std::size_t i = 2; i < 5; ++i) {
    for (std::size_t j = 0; j + 1 < i; ++j) {
      EXPECT_NEAR(h(i, j), 0.0, 1e-12);
    }
  }
  EXPECT_NEAR(trace(h), trace(a), 1e-9);
  EXPECT_NEAR(spectral_radius(h), spectral_radius(a), 1e-8);
}

TEST(Eig, ZeroAndIdentity) {
  EXPECT_DOUBLE_EQ(spectral_radius(Matrix(3, 3)), 0.0);
  EXPECT_DOUBLE_EQ(spectral_radius(Matrix::identity(3)), 1.0);
  EXPECT_FALSE(spectral_radius(Matrix::identity(2)) < 1.0);
}

// ------------------------------------------------------------------ expm

TEST(Expm, IdentityAndZero) {
  EXPECT_TRUE(approx_equal(expm(Matrix(3, 3)), Matrix::identity(3), 1e-14));
  const Matrix e = expm(Matrix::identity(2));
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-12);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-12);
}

TEST(Expm, DiagonalExact) {
  const Matrix e =
      expm(Matrix{{1.0, 0.0, 0.0}, {0.0, -2.0, 0.0}, {0.0, 0.0, 0.1}});
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-12);
  EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(e(2, 2), std::exp(0.1), 1e-12);
}

TEST(Expm, NilpotentExact) {
  // exp([[0,1],[0,0]] t) = [[1,t],[0,1]].
  Matrix n{{0.0, 1.0}, {0.0, 0.0}};
  const Matrix e = expm(n * 3.5);
  EXPECT_NEAR(e(0, 1), 3.5, 1e-12);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-12);
}

TEST(Expm, SemigroupProperty) {
  // Property: exp(A) exp(A) = exp(2A) for random matrices.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Matrix a = random_matrix(4, seed, 2.0);
    const Matrix e1 = expm(a);
    const Matrix e2 = expm(a * 2.0);
    EXPECT_TRUE(approx_equal(e1 * e1, e2, 1e-7 * e2.max_abs()))
        << "seed " << seed;
  }
}

TEST(Expm, InverseProperty) {
  // exp(A) exp(-A) = I.
  const Matrix a = random_matrix(4, 7, 1.5);
  EXPECT_TRUE(approx_equal(expm(a) * expm(-a), Matrix::identity(4), 1e-9));
}

TEST(ExpmIntegral, MatchesSeriesForSmallT) {
  // Phi(t) ~ t I + t^2/2 A + t^3/6 A^2 for small t.
  const Matrix a = random_matrix(3, 3);
  const double t = 1e-3;
  const Matrix phi = expm_integral(a, t);
  Matrix series = Matrix::identity(3) * t + a * (t * t / 2.0) +
                  a * a * (t * t * t / 6.0);
  EXPECT_TRUE(approx_equal(phi, series, 1e-12));
}

TEST(ExpmIntegral, InvertibleACaseClosedForm) {
  // For invertible A: Phi(t) = A^{-1}(exp(At) - I).
  Matrix a{{-2.0, 0.5}, {0.1, -1.0}};
  const double t = 0.37;
  const Matrix phi = expm_integral(a, t);
  const Matrix closed = inverse(a) * (expm(a * t) - Matrix::identity(2));
  EXPECT_TRUE(approx_equal(phi, closed, 1e-11));
}

TEST(ExpmIntegral, SingularAWellDefined) {
  // A = 0: Phi(t) = t I.
  const Matrix phi = expm_integral(Matrix(2, 2), 0.5);
  EXPECT_TRUE(approx_equal(phi, Matrix::identity(2) * 0.5, 1e-13));
  EXPECT_THROW(expm_integral(Matrix(2, 2), -1.0), std::invalid_argument);
}

// Parameterized property sweep: expm_with_integral consistency across time
// scales (the pair must satisfy d/dt relationships at every scale).
class ExpmScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(ExpmScaleTest, PairConsistency) {
  const double t = GetParam();
  const Matrix a{{0.0, 1.0}, {-14400.0, -36.0}};  // case-study-like plant
  const auto pair = expm_with_integral(a, t);
  // Phi(t) = integral: differentiate numerically: Phi(t+e)-Phi(t) ~ e*exp(At)
  const double e = t * 1e-6 + 1e-12;
  const Matrix dphi = expm_integral(a, t + e) - pair.phi;
  EXPECT_TRUE(approx_equal(dphi * (1.0 / e), pair.ad,
                           1e-3 * pair.ad.max_abs() + 1e-6))
      << "t=" << t;
}

INSTANTIATE_TEST_SUITE_P(TimeScales, ExpmScaleTest,
                         ::testing::Values(1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0));
