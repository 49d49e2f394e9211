// Symmetric tridiagonal eigensolver: QL iteration with implicit shifts.
//
// This is the "QL iteration" step of §3.2.3 (citing Numerical Recipes): the
// Lanczos process reduces C = B·Bᵀ to a k x k tridiagonal T_k, whose
// eigenpairs the QL iteration extracts "extremely fast" — k is 5 or 6 in
// FUNNEL, so this is a handful of 2x2 rotations per window.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "linalg/sym_eigen.h"

namespace funnel::linalg {

/// A symmetric tridiagonal matrix: `diag` has n entries, `subdiag` n-1.
struct Tridiagonal {
  Vector diag;
  Vector subdiag;

  std::size_t size() const { return diag.size(); }

  /// Materialize as a dense matrix (testing helper).
  Matrix to_dense() const;
};

/// Working buffers of tridiag_eigen. After one call at a given size,
/// further calls at that size (with the same `out`) make no heap allocation.
struct TridiagWorkspace {
  Vector d;  ///< diagonal, converging to the eigenvalues
  Vector e;  ///< subdiagonal plus one spare slot
  Matrix z;  ///< accumulated rotations
  std::vector<std::size_t> order;
};

/// Eigendecomposition of a symmetric tridiagonal matrix by implicit-shift QL
/// (the classic `tqli` routine), written into `out`. Eigenvalues are
/// returned in non-increasing order, eigenvectors as columns of `vectors`
/// (expressed in the basis the tridiagonal matrix is given in).
///
/// Throws NumericalError if an eigenvalue fails to converge in 50 iterations.
void tridiag_eigen(const Tridiagonal& t, SymEigen& out, TridiagWorkspace& ws);

/// Allocating form of the above.
SymEigen tridiag_eigen(const Tridiagonal& t);

/// Eigenvalues only (same algorithm without eigenvector accumulation —
/// used where only Ritz values are needed).
Vector tridiag_eigenvalues(const Tridiagonal& t);

}  // namespace funnel::linalg
