#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cloudmedia::util {

/// Small dense row-major matrix of doubles, sized for the paper's
/// per-channel systems (J ≈ 20 chunks). Not a general linear-algebra
/// library: just what the Jackson traffic equations and Proposition 1
/// need — construction, transpose, mat-vec, and a pivoted LU solve.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;
  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  /// Unchecked pointer to the `cols()` contiguous entries of row r.
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] double* row(std::size_t r) noexcept {
    return data_.data() + r * cols_;
  }

  [[nodiscard]] Matrix transpose() const;
  [[nodiscard]] std::vector<double> multiply(const std::vector<double>& v) const;
  [[nodiscard]] Matrix multiply(const Matrix& other) const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Max absolute row sum (infinity norm).
  [[nodiscard]] double inf_norm() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Gaussian elimination with partial pivoting, split into its two halves:
/// the constructor eliminates A once, and solve_columns() replays the
/// elimination on any number of right-hand sides in one call. A system
/// whose matrix repeats (the same P in every channel, the same P at every
/// population) factors once.
///
/// Each multiplier is kept in the strictly lower cell that elimination
/// zeroes, so the factors take no more room than A. A solve applies the
/// recorded row swaps to b in step order, then unit-lower forward
/// substitution in column order, then back substitution: every element of
/// b gets the same subtractions, with the same operands and in the same
/// order, as in a single interleaved elimination of [A | b].
class LuFactors {
 public:
  /// Throws InvariantError if A is (numerically) singular.
  explicit LuFactors(Matrix a);

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }
  /// The solution x of A x = b: solve_columns with k = 1.
  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;
  /// Solves A X = B in place for k right-hand sides, stored n × k row-major
  /// in `b` (column c is b[r * k + c]). Each column gets exactly the
  /// operations, in the same order, that it would get solved alone, so the
  /// result is bitwise the k single solves'. The columns go through the
  /// factors four at a time (then one at a time for the rest), innermost
  /// and contiguous, so four independent chains of dependent subtractions
  /// share each sweep and can vectorize.
  void solve_columns(std::span<double> b, std::size_t k) const;

 private:
  Matrix lu_;                        ///< U on and above the diagonal, L below
  std::vector<std::size_t> pivots_;  ///< row swapped into place at each step
};

}  // namespace cloudmedia::util
