#pragma once
/// \file matrix.hpp
/// \brief Dense row-major matrix/vector types for small control-oriented
///        linear algebra (systems in this library are at most a few dozen
///        states, so simplicity and correctness beat blocking/SIMD tricks).

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace catsched::linalg {

/// Dense, row-major matrix of doubles with small-buffer-optimized storage.
///
/// Matrices up to kInlineCapacity entries (8x8) live entirely inside the
/// object — no heap allocation — because the controller-design hot path
/// (discretization, monodromy, feedforward, dense simulation) churns
/// through millions of 2x2..5x5 temporaries per schedule search. Larger
/// matrices (lifted systems) spill to the heap
/// transparently. Storage is an implementation detail: value semantics,
/// the API, and every numerical result are identical in both modes (the
/// differential test in tests/test_matrix_sbo.cpp enforces this).
///
/// Value semantics throughout: copies are deep, moves are cheap (pointer
/// steal when spilled, element copy when inline). All dimension mismatches
/// throw std::invalid_argument so that user errors surface immediately
/// instead of corrupting a co-design run.
class Matrix {
public:
  /// Entries stored inline (no heap) — 64 doubles covers an 8x8 block.
  static constexpr std::size_t kInlineCapacity = 64;

  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, all entries initialized to \p fill.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from nested braces: Matrix{{1,2},{3,4}}.
  /// \throws std::invalid_argument if rows are ragged.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  Matrix(const Matrix& other);
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(const Matrix& other);
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix() { release(); }

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  /// All-zero matrix.
  static Matrix zero(std::size_t rows, std::size_t cols);

  /// Column vector from a flat list of entries.
  static Matrix column(std::initializer_list<double> entries);

  /// Column vector from a std::vector of entries.
  static Matrix column(const std::vector<double>& entries);

  /// Diagonal matrix with the given diagonal entries.
  static Matrix diagonal(const std::vector<double>& diag);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return size() == 0; }
  bool is_square() const noexcept { return rows_ == cols_; }

  /// True if this is a column vector (cols == 1) or 0x0.
  bool is_column() const noexcept { return cols_ == 1 || empty(); }

  /// True if the entries live in the inline buffer (no heap).
  bool is_inline() const noexcept { return ptr_ == inline_; }

  /// Entry capacity of the current storage (>= kInlineCapacity).
  std::size_t capacity() const noexcept { return cap_; }

  /// Grow storage to hold at least \p cap entries, preserving contents.
  /// Capacities beyond kInlineCapacity force the heap ("spilled") layout —
  /// the differential tests use this to pin small values into the
  /// pre-refactor heap storage and compare against the inline fast path.
  void reserve(std::size_t cap);

  /// Re-dimension in place, reusing the current storage when it is large
  /// enough. Entry values are unspecified afterwards — this is the
  /// workspace primitive behind multiply_into and friends, not a
  /// data-preserving resize.
  void resize(std::size_t rows, std::size_t cols);

  /// Unchecked element access (row-major).
  double& operator()(std::size_t r, std::size_t c) noexcept {
    return ptr_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return ptr_[r * cols_ + c];
  }

  /// Bounds-checked element access.
  /// \throws std::out_of_range
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Flat access for vectors (either orientation).
  /// \throws std::out_of_range if index exceeds size().
  double& operator[](std::size_t i);
  double operator[](std::size_t i) const;

  const double* data() const noexcept { return ptr_; }
  double* data() noexcept { return ptr_; }

  // -- Arithmetic (all dimension-checked) ------------------------------
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;
  Matrix& operator/=(double s);
  Matrix operator-() const;

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) noexcept { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) noexcept { return rhs *= s; }
  friend Matrix operator/(Matrix lhs, double s) { return lhs /= s; }

  /// Matrix product. \throws std::invalid_argument on inner-dim mismatch.
  friend Matrix operator*(const Matrix& lhs, const Matrix& rhs);

  /// Deep equality: same dimensions and entry-wise double equality
  /// (storage mode — inline vs spilled — is irrelevant).
  bool operator==(const Matrix& rhs) const noexcept;

  // -- Structure -------------------------------------------------------
  Matrix transposed() const;

  /// Copy of rows [r0, r0+nr) x cols [c0, c0+nc).
  /// \throws std::out_of_range if the block exceeds the matrix.
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;

  /// Write \p src into this matrix with its (0,0) at (r0,c0).
  /// \throws std::out_of_range if src does not fit.
  void set_block(std::size_t r0, std::size_t c0, const Matrix& src);

  /// Copy of row r as a 1 x cols matrix.
  Matrix row(std::size_t r) const;
  /// Copy of column c as a rows x 1 matrix.
  Matrix col(std::size_t c) const;

  /// Stack blocks: [[A, B], [C, D]] etc. Every row of blocks must agree on
  /// height, every column on width. \throws std::invalid_argument.
  static Matrix from_blocks(
      std::initializer_list<std::initializer_list<Matrix>> blocks);

  /// Horizontal concatenation [A B].
  static Matrix hcat(const Matrix& a, const Matrix& b);
  /// Vertical concatenation [A; B].
  static Matrix vcat(const Matrix& a, const Matrix& b);

  // -- Reductions ------------------------------------------------------
  /// Frobenius norm.
  double norm() const noexcept;
  /// Induced infinity norm (max absolute row sum).
  double norm_inf() const noexcept;
  /// Induced 1-norm (max absolute column sum).
  double norm_1() const noexcept;
  /// Largest absolute entry.
  double max_abs() const noexcept;
  /// Sum of diagonal entries. \throws std::invalid_argument if not square.
  double trace() const;

private:
  /// Point ptr_ at storage for n entries (contents uninitialized).
  void init_storage(std::size_t n);
  /// Free any heap storage and fall back to the inline buffer.
  void release() noexcept {
    if (ptr_ != inline_) delete[] ptr_;
    ptr_ = inline_;
    cap_ = kInlineCapacity;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t cap_ = kInlineCapacity;
  double* ptr_ = inline_;
  double inline_[kInlineCapacity];
};

/// Pretty-print with aligned columns (for logs and examples).
std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// Entry-wise approximate equality with absolute tolerance.
bool approx_equal(const Matrix& a, const Matrix& b, double tol = 1e-9);

/// Dot product of two vectors (any orientation, sizes must match).
double dot(const Matrix& a, const Matrix& b);

// -- In-place multiply-accumulate primitives ---------------------------
// The allocation-free kernels behind the switched-system simulator and the
// design search (ISSUE 3): identical arithmetic (same loop order, same
// skip-zero short-circuit) to the operator forms, but writing into a
// caller-owned workspace so inner loops run with zero allocations.
// \p out must not alias \p a or \p b.

/// out = a * b (out is re-dimensioned; contents overwritten).
/// \throws std::invalid_argument on inner-dimension mismatch.
void multiply_into(Matrix& out, const Matrix& a, const Matrix& b);

/// out += a * b.
/// \throws std::invalid_argument on any dimension mismatch.
void multiply_add_into(Matrix& out, const Matrix& a, const Matrix& b);

/// y += alpha * x (entry-wise).
/// \throws std::invalid_argument on dimension mismatch.
void axpy_into(Matrix& y, double alpha, const Matrix& x);

}  // namespace catsched::linalg
