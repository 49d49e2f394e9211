#include "linalg/matrix.h"

#include <cmath>

#include "common/error.h"

namespace funnel::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    FUNNEL_REQUIRE(r.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

Vector Matrix::col(std::size_t c) const {
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_col(std::size_t c, std::span<const double> v) {
  FUNNEL_REQUIRE(v.size() == rows_, "column length mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Vector matvec(const Matrix& m, std::span<const double> x) {
  FUNNEL_REQUIRE(x.size() == m.cols(), "matvec dimension mismatch");
  Vector y(m.rows(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Vector matvec_transposed(const Matrix& m, std::span<const double> x) {
  FUNNEL_REQUIRE(x.size() == m.rows(), "matvec_transposed dimension mismatch");
  Vector y(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    const double xr = x[r];
    for (std::size_t c = 0; c < row.size(); ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  FUNNEL_REQUIRE(a.cols() == b.rows(), "matmul dimension mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  }
  return t;
}

Matrix gram_rows(const Matrix& a) {
  Matrix g(a.rows(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i; j < a.rows(); ++j) {
      const double v = dot(a.row(i), a.row(j));
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

Matrix gram_cols(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    const Vector ci = a.col(i);
    for (std::size_t j = i; j < a.cols(); ++j) {
      const Vector cj = a.col(j);
      const double v = dot(ci, cj);
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

double dot(std::span<const double> a, std::span<const double> b) {
  FUNNEL_REQUIRE(a.size() == b.size(), "dot dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const double> v) { return std::sqrt(dot(v, v)); }

double normalize(std::span<double> v) {
  const double n = norm2(v);
  if (n > 0.0) {
    for (double& x : v) x /= n;
  }
  return n;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  FUNNEL_REQUIRE(x.size() == y.size(), "axpy dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double frobenius_distance(const Matrix& a, const Matrix& b) {
  FUNNEL_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                 "frobenius_distance shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const double d = a.data()[i] - b.data()[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double max_abs_difference(const Matrix& a, const Matrix& b) {
  FUNNEL_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                 "max_abs_difference shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

}  // namespace funnel::linalg
