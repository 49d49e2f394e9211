#include "linalg/sym_eigen.h"

#include <cmath>

#include "common/error.h"

namespace funnel::linalg {

void sort_eigenpairs(const Vector& values, const Matrix& vectors,
                     std::vector<std::size_t>& order, SymEigen& out) {
  const std::size_t n = values.size();
  order.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t pos = j;
    for (; pos > 0 && values[j] > values[order[pos - 1]]; --pos) {
      order[pos] = order[pos - 1];
    }
    order[pos] = j;
  }
  out.values.resize(n);
  out.vectors.resize(vectors.rows(), n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = values[order[j]];
    for (std::size_t i = 0; i < vectors.rows(); ++i) {
      out.vectors(i, j) = vectors(i, order[j]);
    }
  }
}

void sym_eigen(const Matrix& a, SymEigen& out, SymEigenWorkspace& ws,
               double tol, int max_sweeps) {
  FUNNEL_REQUIRE(a.rows() == a.cols(), "sym_eigen requires a square matrix");
  const std::size_t n = a.rows();
  Matrix& m = ws.m;
  Matrix& q = ws.q;
  m = a;
  q.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;

  // Scale for the convergence test: Frobenius norm of the input.
  double fro = 0.0;
  for (double x : a.data()) fro += x * x;
  fro = std::sqrt(fro);
  const double stop = tol * (fro > 0.0 ? fro : 1.0);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) off += m(i, j) * m(i, j);
    }
    off = std::sqrt(2.0 * off);
    if (off <= stop) break;
    if (sweep == max_sweeps - 1) {
      throw NumericalError("sym_eigen: sweep limit exceeded");
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t qq = p + 1; qq < n; ++qq) {
        const double apq = m(p, qq);
        if (std::abs(apq) <= stop / static_cast<double>(n * n)) continue;
        const double app = m(p, p);
        const double aqq = m(qq, qq);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : -1.0 / (-theta + std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // Apply the rotation J(p, q, theta) on both sides: M <- Jᵀ M J.
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, qq);
          m(k, p) = c * mkp - s * mkq;
          m(k, qq) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(qq, k);
          m(p, k) = c * mpk - s * mqk;
          m(qq, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double qkp = q(k, p);
          const double qkq = q(k, qq);
          q(k, p) = c * qkp - s * qkq;
          q(k, qq) = s * qkp + c * qkq;
        }
      }
    }
  }

  ws.diag.resize(n);
  for (std::size_t i = 0; i < n; ++i) ws.diag[i] = m(i, i);
  sort_eigenpairs(ws.diag, q, ws.order, out);
}

SymEigen sym_eigen(const Matrix& a, double tol, int max_sweeps) {
  SymEigen out;
  SymEigenWorkspace ws;
  sym_eigen(a, out, ws, tol, max_sweeps);
  return out;
}

}  // namespace funnel::linalg
