#include "linalg/tridiag.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace funnel::linalg {
namespace {

double hypot2(double a, double b) { return std::hypot(a, b); }

// Implicit-shift QL on (d, e); if `z` is non-null the rotations are
// accumulated into it (z starts as identity or the Lanczos basis).
void tqli(Vector& d, Vector& e, Matrix* z) {
  const std::size_t n = d.size();
  if (n == 0) return;
  // e is used with the NR convention: e[0..n-2] subdiagonal, e[n-1] spare.
  e.resize(n, 0.0);

  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      // Find a negligible subdiagonal element to split the problem.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (iter++ == 50) {
          throw NumericalError("tridiag_eigen: too many QL iterations");
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (z != nullptr) {
            for (std::size_t k = 0; k < z->rows(); ++k) {
              f = (*z)(k, i + 1);
              (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
              (*z)(k, i) = c * (*z)(k, i) - s * f;
            }
          }
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

}  // namespace

Matrix Tridiagonal::to_dense() const {
  const std::size_t n = size();
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = diag[i];
    if (i + 1 < n) {
      m(i, i + 1) = subdiag[i];
      m(i + 1, i) = subdiag[i];
    }
  }
  return m;
}

void tridiag_eigen(const Tridiagonal& t, SymEigen& out, TridiagWorkspace& ws) {
  FUNNEL_REQUIRE(t.subdiag.size() + 1 == t.diag.size() || t.diag.empty(),
                 "tridiagonal subdiagonal must have n-1 entries");
  const std::size_t n = t.size();
  ws.d.assign(t.diag.begin(), t.diag.end());
  ws.e.reserve(n);
  ws.e.assign(t.subdiag.begin(), t.subdiag.end());
  ws.z.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) ws.z(i, i) = 1.0;
  tqli(ws.d, ws.e, &ws.z);
  sort_eigenpairs(ws.d, ws.z, ws.order, out);
}

SymEigen tridiag_eigen(const Tridiagonal& t) {
  SymEigen out;
  TridiagWorkspace ws;
  tridiag_eigen(t, out, ws);
  return out;
}

Vector tridiag_eigenvalues(const Tridiagonal& t) {
  FUNNEL_REQUIRE(t.subdiag.size() + 1 == t.diag.size() || t.diag.empty(),
                 "tridiagonal subdiagonal must have n-1 entries");
  Vector d = t.diag;
  Vector e = t.subdiag;
  tqli(d, e, nullptr);
  std::sort(d.begin(), d.end(), std::greater<>());
  return d;
}

}  // namespace funnel::linalg
