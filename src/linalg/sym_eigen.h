// Symmetric eigendecomposition via the cyclic Jacobi method.
//
// Used for the future-trajectory Gram matrix A·Aᵀ in the improved SST
// (§3.2.2) and as the exact reference for the Lanczos/QL fast path.
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace funnel::linalg {

/// Eigendecomposition of a symmetric matrix: A = Q diag(values) Qᵀ.
/// Eigenvalues are sorted in non-increasing order; column j of `vectors`
/// is the eigenvector for `values[j]`.
struct SymEigen {
  Vector values;
  Matrix vectors;
};

/// Working buffers of sym_eigen. After one call at a given size, further
/// calls at that size (with the same `out`) make no heap allocation.
struct SymEigenWorkspace {
  Matrix m;  ///< the input, rotated towards diagonal
  Matrix q;  ///< accumulated rotations
  Vector diag;
  std::vector<std::size_t> order;
};

/// Cyclic Jacobi eigensolver for a symmetric matrix, writing into `out`.
/// Throws InvalidArgument if `a` is not square, NumericalError if the sweep
/// limit is exceeded.
void sym_eigen(const Matrix& a, SymEigen& out, SymEigenWorkspace& ws,
               double tol = 1e-12, int max_sweeps = 64);

/// Allocating form of the above.
SymEigen sym_eigen(const Matrix& a, double tol = 1e-12, int max_sweeps = 64);

/// Sort eigenpairs into `out` by non-increasing value, ties kept in input
/// order: out.values[j] = values[p(j)], out.vectors column j = column p(j)
/// of `vectors`. `order` is the permutation buffer. Insertion sort — the
/// same permutation std::stable_sort yields, without its temporary buffer.
void sort_eigenpairs(const Vector& values, const Matrix& vectors,
                     std::vector<std::size_t>& order, SymEigen& out);

}  // namespace funnel::linalg
