#include "util/matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace cloudmedia::util {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  CM_EXPECTS(rows > 0 && cols > 0);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  CM_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  CM_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

std::vector<double> Matrix::multiply(const std::vector<double>& v) const {
  CM_EXPECTS(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::multiply(const Matrix& other) const {
  CM_EXPECTS(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) out(r, c) += a * other(k, c);
    }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  CM_EXPECTS(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  CM_EXPECTS(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

double Matrix::inf_norm() const noexcept {
  double best = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) row += std::abs((*this)(r, c));
    best = std::max(best, row);
  }
  return best;
}

LuFactors::LuFactors(Matrix a) : lu_(std::move(a)) {
  CM_EXPECTS(lu_.rows() == lu_.cols());
  const std::size_t n = lu_.rows();
  pivots_.resize(n);
  double* const m = n == 0 ? nullptr : lu_.row(0);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(m[r * n + col]) > std::abs(m[pivot * n + col])) pivot = r;
    if (std::abs(m[pivot * n + col]) < 1e-12) {
      throw InvariantError("LuFactors: singular matrix");
    }
    pivots_[col] = pivot;
    double* const top = m + col * n;
    // Whole rows, multipliers included, so each stored multiplier stays
    // with the right-hand-side element it is applied to.
    if (pivot != col) std::swap_ranges(top, top + n, m + pivot * n);
    const double inv = 1.0 / top[col];
    for (std::size_t r = col + 1; r < n; ++r) {
      double* const row = m + r * n;
      const double factor = row[col] * inv;
      row[col] = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) row[c] -= factor * top[c];
    }
  }
}

std::vector<double> LuFactors::solve(std::vector<double> b) const {
  const std::size_t n = lu_.rows();
  CM_EXPECTS(b.size() == n);
  for (std::size_t col = 0; col < n; ++col) {
    if (pivots_[col] != col) std::swap(b[pivots_[col]], b[col]);
  }
  const double* const m = n == 0 ? nullptr : lu_.row(0);
  for (std::size_t col = 0; col < n; ++col) {
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = m[r * n + col];
      if (factor == 0.0) continue;
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    const double* const row = lu_.row(ri);
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= row[c] * x[c];
    x[ri] = acc / row[ri];
  }
  return x;
}

}  // namespace cloudmedia::util
