/// \file test_matrix_sbo.cpp
/// \brief Differential tests for the small-buffer-optimized Matrix storage
///        (ISSUE 3): every operation must produce bit-identical results
///        whether its operands live in the inline buffer or in the
///        pre-refactor heap ("spilled") layout, with the spill/inline
///        boundary crossed in both directions. Storage is an
///        implementation detail; arithmetic must never observe it.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "linalg/eig.hpp"
#include "linalg/expm.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

using namespace catsched::linalg;

namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                     double scale = 1.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-scale, scale);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = d(rng);
  }
  return m;
}

/// Copy of \p m pinned into the pre-refactor heap layout: reserve() beyond
/// the inline capacity forces the spill no matter how small the value is,
/// and the move out of the factory steals the heap block, so the result
/// stays spilled at the call site.
Matrix spilled(const Matrix& m) {
  Matrix s = m;
  s.reserve(Matrix::kInlineCapacity + 1);
  return s;
}

/// Bit-level equality: dimensions plus memcmp over the payload, so even
/// -0.0 vs +0.0 or NaN-payload differences would be caught (stronger than
/// operator==, which uses double comparison).
::testing::AssertionResult bit_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "dims " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  if (a.size() != 0 &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "payload differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(MatrixSbo, StorageModeFollowsSize) {
  // 8x8 = 64 entries is the last inline size; 9x9 must spill.
  EXPECT_TRUE(Matrix(8, 8).is_inline());
  EXPECT_FALSE(Matrix(9, 9).is_inline());
  EXPECT_TRUE(Matrix(1, 64).is_inline());
  EXPECT_FALSE(Matrix(1, 65).is_inline());
  EXPECT_TRUE(Matrix().is_inline());
}

TEST(MatrixSbo, SpillHelperForcesHeapWithoutChangingValue) {
  for (std::size_t n = 1; n <= 12; ++n) {
    const Matrix a = random_matrix(n, n, 100 + n);
    const Matrix s = spilled(a);
    EXPECT_EQ(a.is_inline(), n <= 8);
    EXPECT_FALSE(s.is_inline());
    EXPECT_TRUE(bit_equal(a, s));
    EXPECT_TRUE(a == s);
  }
}

// The core differential: run the same randomized operation once on inline
// operands and once on spilled operands; outcomes must be bit-identical.
TEST(MatrixSbo, ArithmeticIsStorageInvariant) {
  for (std::size_t n = 1; n <= 12; ++n) {
    const Matrix a = random_matrix(n, n, 2 * n);
    const Matrix b = random_matrix(n, n, 2 * n + 1);
    const Matrix sa = spilled(a);
    const Matrix sb = spilled(b);

    EXPECT_TRUE(bit_equal(a * b, sa * sb)) << "multiply n=" << n;
    EXPECT_TRUE(bit_equal(a + b, sa + sb)) << "add n=" << n;
    EXPECT_TRUE(bit_equal(a - b, sa - sb)) << "sub n=" << n;
    EXPECT_TRUE(bit_equal(a * 3.25, sa * 3.25)) << "scale n=" << n;
    EXPECT_TRUE(bit_equal(-a, -sa)) << "negate n=" << n;
    EXPECT_TRUE(bit_equal(a.transposed(), sa.transposed())) << "T n=" << n;
    EXPECT_EQ(a.norm(), sa.norm());
    EXPECT_EQ(a.norm_1(), sa.norm_1());
    EXPECT_EQ(a.norm_inf(), sa.norm_inf());
    EXPECT_EQ(a.max_abs(), sa.max_abs());
    EXPECT_EQ(a.trace(), sa.trace());
    EXPECT_EQ(dot(a.col(0), b.col(0)), dot(sa.col(0), sb.col(0)));
  }
}

TEST(MatrixSbo, LuSolveInverseDeterminantAreStorageInvariant) {
  for (std::size_t n = 1; n <= 12; ++n) {
    // Diagonally dominated so every instance is comfortably invertible.
    Matrix a = random_matrix(n, n, 40 + n);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;
    const Matrix rhs = random_matrix(n, 2, 80 + n);
    const Matrix sa = spilled(a);
    const Matrix srhs = spilled(rhs);

    const LU lu(a);
    const LU slu(sa);
    EXPECT_EQ(lu.singular(), slu.singular());
    EXPECT_EQ(lu.determinant(), slu.determinant()) << "det n=" << n;
    EXPECT_TRUE(bit_equal(lu.solve(rhs), slu.solve(srhs))) << "solve n=" << n;
    EXPECT_TRUE(bit_equal(lu.inverse(), slu.inverse())) << "inv n=" << n;
  }
}

TEST(MatrixSbo, ExpmIsStorageInvariantAcrossPadeDegrees) {
  // Scales chosen to hit the degree-3/5/7/9 branches and the degree-13
  // scaling-and-squaring path of Higham's method.
  for (const double scale : {0.005, 0.1, 0.5, 1.5, 20.0}) {
    for (const std::size_t n : {1u, 2u, 4u, 8u, 9u, 12u}) {
      const Matrix a =
          random_matrix(n, n, 7 * n + static_cast<std::uint64_t>(scale * 10),
                        scale);
      EXPECT_TRUE(bit_equal(expm(a), expm(spilled(a))))
          << "expm n=" << n << " scale=" << scale;
      const auto p = expm_with_integral(a, 1e-3);
      const auto sp = expm_with_integral(spilled(a), 1e-3);
      EXPECT_TRUE(bit_equal(p.ad, sp.ad));
      EXPECT_TRUE(bit_equal(p.phi, sp.phi));
    }
  }
}

TEST(MatrixSbo, EigenvaluesAreStorageInvariant) {
  for (std::size_t n = 1; n <= 12; ++n) {
    const Matrix a = random_matrix(n, n, 300 + n);
    const auto ev = eigenvalues(a);
    const auto sev = eigenvalues(spilled(a));
    ASSERT_EQ(ev.size(), sev.size());
    for (std::size_t i = 0; i < ev.size(); ++i) {
      EXPECT_EQ(ev[i].real(), sev[i].real()) << "n=" << n << " i=" << i;
      EXPECT_EQ(ev[i].imag(), sev[i].imag()) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(spectral_radius(a), spectral_radius(spilled(a)));
  }
}

// Joins across the boundary in both directions: inline inputs whose
// concatenation spills, and a spilled input whose extracted block is
// inline again.
TEST(MatrixSbo, JoinsAndBlocksCrossTheBoundaryBothWays) {
  for (std::size_t n = 1; n <= 12; ++n) {
    const Matrix a = random_matrix(n, n, 700 + n);
    const Matrix b = random_matrix(n, n, 800 + n);
    const Matrix h = Matrix::hcat(a, b);
    const Matrix sh = Matrix::hcat(spilled(a), spilled(b));
    EXPECT_TRUE(bit_equal(h, sh)) << "hcat n=" << n;
    EXPECT_EQ(h.is_inline(), h.size() <= Matrix::kInlineCapacity);
    const Matrix v = Matrix::vcat(a, b);
    EXPECT_TRUE(bit_equal(v, Matrix::vcat(spilled(a), spilled(b))));

    // Inline 6x6 hcat'ed with itself spills (6x12 = 72 > 64)...
    if (n == 6) {
      EXPECT_FALSE(h.is_inline());
    }
    // ...and a block carved out of a spilled matrix is inline again.
    const Matrix blk = sh.block(0, 0, n, n);
    EXPECT_TRUE(bit_equal(blk, a));
    EXPECT_EQ(blk.is_inline(), n <= 8);

    Matrix big = spilled(Matrix(n, n, 0.0));
    big.set_block(0, 0, a);
    EXPECT_TRUE(bit_equal(big, spilled(a)));
  }
}

TEST(MatrixSbo, IntoPrimitivesMatchOperatorFormsInEitherStorage) {
  for (std::size_t n = 1; n <= 12; ++n) {
    const Matrix a = random_matrix(n, n, 900 + n);
    const Matrix b = random_matrix(n, n, 1000 + n);
    const Matrix expect = a * b;

    Matrix out;  // inline workspace, re-dimensioned by the primitive
    multiply_into(out, a, b);
    EXPECT_TRUE(bit_equal(out, expect));

    Matrix sout = spilled(Matrix(n, n, 0.0));  // spilled workspace, reused
    multiply_into(sout, spilled(a), spilled(b));
    EXPECT_FALSE(sout.is_inline());
    EXPECT_TRUE(bit_equal(sout, expect));

    // Accumulation rounds product-by-product, so there is no operator
    // identity to compare against — pin storage invariance instead:
    // the same accumulation from inline and spilled operands/workspaces.
    Matrix acc = a * b;
    multiply_add_into(acc, a, b);
    Matrix sacc = spilled(a * b);
    multiply_add_into(sacc, spilled(a), spilled(b));
    EXPECT_TRUE(bit_equal(acc, sacc));

    Matrix y = a;
    axpy_into(y, 2.5, b);
    Matrix sy = spilled(a);
    axpy_into(sy, 2.5, spilled(b));
    EXPECT_TRUE(bit_equal(y, sy));
  }
}

// Value semantics across the boundary: copies/moves between inline and
// spilled objects must preserve values exactly and leave sources valid.
TEST(MatrixSbo, CopyAndMoveSemanticsAcrossTheBoundary) {
  const Matrix small = random_matrix(3, 3, 42);
  const Matrix large = random_matrix(10, 10, 43);

  // Copy construction from each mode.
  Matrix c1 = small;
  Matrix c2 = spilled(small);
  Matrix c3 = large;
  EXPECT_TRUE(c1.is_inline());
  EXPECT_FALSE(c2.is_inline());
  EXPECT_FALSE(c3.is_inline());
  EXPECT_TRUE(bit_equal(c1, c2));
  EXPECT_TRUE(bit_equal(c3, large));

  // Assignment inline -> spilled object: storage may stay heap, values win.
  Matrix t = spilled(small);
  t = large;
  EXPECT_TRUE(bit_equal(t, large));
  // Assignment spilled -> inline object grows it.
  Matrix u = small;
  u = spilled(large);
  EXPECT_TRUE(bit_equal(u, large));

  // Move of a spilled matrix steals the heap block and empties the source.
  Matrix ms = spilled(large);
  Matrix stolen = std::move(ms);
  EXPECT_FALSE(stolen.is_inline());
  EXPECT_TRUE(bit_equal(stolen, large));
  EXPECT_TRUE(ms.empty());  // NOLINT(bugprone-use-after-move): documented

  // Move of an inline matrix copies elements (nothing to steal).
  Matrix mi = small;
  Matrix moved = std::move(mi);
  EXPECT_TRUE(moved.is_inline());
  EXPECT_TRUE(bit_equal(moved, small));

  // Self-assignment is a no-op in both modes.
  Matrix self = small;
  self = *&self;
  EXPECT_TRUE(bit_equal(self, small));
  Matrix sself = spilled(small);
  sself = *&sself;
  EXPECT_TRUE(bit_equal(sself, small));
}

TEST(MatrixSbo, ReserveAndResizeReuseStorage) {
  Matrix m = random_matrix(4, 4, 77);
  const Matrix orig = m;
  m.reserve(2);  // below current capacity: no-op
  EXPECT_TRUE(m.is_inline());
  EXPECT_TRUE(bit_equal(m, orig));
  m.reserve(Matrix::kInlineCapacity + 8);  // spill, preserving contents
  EXPECT_FALSE(m.is_inline());
  EXPECT_TRUE(bit_equal(m, orig));

  // resize within capacity keeps the allocation (workspace contract).
  const std::size_t cap = m.capacity();
  m.resize(2, 3);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);

  // An inline workspace re-dimensioned repeatedly never allocates.
  Matrix w;
  for (std::size_t n = 1; n <= 8; ++n) {
    w.resize(n, n);
    EXPECT_TRUE(w.is_inline());
    EXPECT_EQ(w.capacity(), Matrix::kInlineCapacity);
  }
}

}  // namespace
