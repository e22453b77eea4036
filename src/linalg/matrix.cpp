#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace catsched::linalg {

void Matrix::init_storage(std::size_t n) {
  if (n <= kInlineCapacity) {
    ptr_ = inline_;
    cap_ = kInlineCapacity;
  } else {
    ptr_ = new double[n];
    cap_ = n;
  }
}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols) {
  init_storage(size());
  std::fill(ptr_, ptr_ + size(), fill);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  init_storage(size());
  double* out = ptr_;
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      release();
      rows_ = cols_ = 0;
      throw std::invalid_argument("Matrix: ragged initializer rows");
    }
    out = std::copy(r.begin(), r.end(), out);
  }
}

Matrix::Matrix(const Matrix& other) : rows_(other.rows_), cols_(other.cols_) {
  init_storage(size());
  std::copy(other.ptr_, other.ptr_ + size(), ptr_);
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_) {
  if (other.ptr_ != other.inline_) {
    ptr_ = other.ptr_;
    cap_ = other.cap_;
    other.ptr_ = other.inline_;
    other.cap_ = kInlineCapacity;
  } else {
    std::copy(other.ptr_, other.ptr_ + size(), ptr_);
  }
  other.rows_ = other.cols_ = 0;
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  const std::size_t n = other.size();
  if (n > cap_) {
    // Allocate before releasing: a throwing allocation must leave *this
    // untouched (basic exception guarantee).
    double* p = new double[n];
    release();
    ptr_ = p;
    cap_ = n;
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  std::copy(other.ptr_, other.ptr_ + n, ptr_);
  return *this;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  if (other.ptr_ != other.inline_) {
    release();
    ptr_ = other.ptr_;
    cap_ = other.cap_;
    rows_ = other.rows_;
    cols_ = other.cols_;
    other.ptr_ = other.inline_;
    other.cap_ = kInlineCapacity;
  } else {
    // Inline source always fits: cap_ >= kInlineCapacity by invariant.
    rows_ = other.rows_;
    cols_ = other.cols_;
    std::copy(other.ptr_, other.ptr_ + size(), ptr_);
  }
  other.rows_ = other.cols_ = 0;
  return *this;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  const std::size_t n = rows * cols;
  if (n > cap_) {
    // Allocate-then-release, as in copy assignment: keep the object
    // consistent if the allocation throws.
    double* p = new double[n];
    release();
    ptr_ = p;
    cap_ = n;
  }
  rows_ = rows;
  cols_ = cols;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix+=: dimension mismatch");
  }
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) ptr_[i] += rhs.ptr_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix-=: dimension mismatch");
  }
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) ptr_[i] -= rhs.ptr_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) ptr_[i] *= s;
  return *this;
}

Matrix Matrix::operator-() const {
  Matrix m(*this);
  const std::size_t n = m.size();
  for (std::size_t i = 0; i < n; ++i) m.ptr_[i] = -m.ptr_[i];
  return m;
}

void multiply_into(Matrix& out, const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("multiply_into: inner dimension mismatch");
  }
  out.resize(a.rows(), b.cols());
  std::fill(out.data(), out.data() + out.size(), 0.0);
  multiply_add_into(out, a, b);
}

void multiply_add_into(Matrix& out, const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows() || out.rows() != a.rows() ||
      out.cols() != b.cols()) {
    throw std::invalid_argument("multiply_add_into: dimension mismatch");
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
}

void axpy_into(Matrix& y, double alpha, const Matrix& x) {
  if (y.rows() != x.rows() || y.cols() != x.cols()) {
    throw std::invalid_argument("axpy_into: dimension mismatch");
  }
  const std::size_t n = y.size();
  double* yd = y.data();
  const double* xd = x.data();
  for (std::size_t i = 0; i < n; ++i) yd[i] += alpha * xd[i];
}

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
  if (lhs.cols() != rhs.rows()) {
    throw std::invalid_argument("Matrix*: inner dimension mismatch");
  }
  Matrix out(lhs.rows(), rhs.cols());
  multiply_add_into(out, lhs, rhs);
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  if (r0 + nr > rows_ || c0 + nc > cols_) {
    throw std::out_of_range("Matrix::block: out of range");
  }
  Matrix out(nr, nc);
  for (std::size_t i = 0; i < nr; ++i) {
    for (std::size_t j = 0; j < nc; ++j) out(i, j) = (*this)(r0 + i, c0 + j);
  }
  return out;
}

void Matrix::set_block(std::size_t r0, std::size_t c0, const Matrix& src) {
  if (r0 + src.rows_ > rows_ || c0 + src.cols_ > cols_) {
    throw std::out_of_range("Matrix::set_block: does not fit");
  }
  for (std::size_t i = 0; i < src.rows_; ++i) {
    for (std::size_t j = 0; j < src.cols_; ++j) {
      (*this)(r0 + i, c0 + j) = src(i, j);
    }
  }
}

double Matrix::norm_1() const noexcept {
  double best = 0.0;
  for (std::size_t j = 0; j < cols_; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) s += std::abs((*this)(i, j));
    best = std::max(best, s);
  }
  return best;
}

double Matrix::max_abs() const noexcept {
  double best = 0.0;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) best = std::max(best, std::abs(ptr_[i]));
  return best;
}

}  // namespace catsched::linalg
