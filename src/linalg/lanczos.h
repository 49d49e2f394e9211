// Lanczos tridiagonalization for the Implicit Krylov Approximation (§3.2.3).
//
// Given a symmetric operator C (FUNNEL uses C = B·Bᵀ of the past Hankel
// matrix, applied implicitly — see hankel.h) and a seed vector, k Lanczos
// steps produce a k x k tridiagonal T_k whose leading eigenpairs approximate
// the leading eigenpairs of C in the Krylov subspace spanned by
// {v, Cv, C²v, ...}. The change score only needs the first component of
// T_k's eigenvectors (the seed is e1 in the Krylov basis), which is what
// makes the per-window cost tiny.
#pragma once

#include <span>

#include "linalg/matrix.h"
#include "linalg/tridiag.h"

namespace funnel::linalg {

/// Abstract symmetric linear operator y = C x.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// Dimension of the (square) operator.
  virtual std::size_t dim() const = 0;

  /// Doubles of working memory apply() needs.
  virtual std::size_t scratch_size() const { return 0; }

  /// y = C x; `y` is pre-sized to dim() and must be fully overwritten.
  /// `scratch` holds at least scratch_size() doubles and may be clobbered.
  virtual void apply(std::span<const double> x, std::span<double> y,
                     std::span<double> scratch) const = 0;

  /// y = C x with scratch allocated per call.
  void apply(std::span<const double> x, std::span<double> y) const;
};

/// Dense symmetric operator backed by a Matrix (testing / reference).
class DenseOperator final : public LinearOperator {
 public:
  explicit DenseOperator(Matrix m);
  std::size_t dim() const override { return m_.rows(); }
  using LinearOperator::apply;
  void apply(std::span<const double> x, std::span<double> y,
             std::span<double> scratch) const override;

 private:
  Matrix m_;
};

/// Result of a Lanczos run: the tridiagonal T_k and (optionally) the
/// orthonormal Krylov basis V (dim x k, columns are the Lanczos vectors).
struct LanczosResult {
  Tridiagonal t;
  Matrix basis;  // empty when want_basis = false

  /// Number of completed steps (may be < requested k when the Krylov space
  /// is exhausted, e.g. for low-rank C).
  std::size_t steps() const { return t.diag.size(); }
};

/// Working buffers of the in-place lanczos. After one call with a given
/// (operator size, k), further such calls make no heap allocation.
struct LanczosWorkspace {
  Matrix basis;  ///< k x dim; row j is Lanczos vector j
  Vector v;
  Vector w;
  Vector scratch;  ///< the operator's apply() scratch
};

/// Run k steps of Lanczos with full reorthogonalization from seed vector
/// `v0` (need not be normalized; must be nonzero), writing T_k into `t`
/// and the Lanczos vectors into the first t.size() rows of `ws.basis`.
///
/// Full reorthogonalization is affordable because FUNNEL's k is 5 or 6, and
/// it removes the classic loss-of-orthogonality failure mode.
void lanczos(const LinearOperator& op, std::span<const double> v0,
             std::size_t k, Tridiagonal& t, LanczosWorkspace& ws);

/// Allocating form of the above; `want_basis` copies the Lanczos vectors
/// out as the columns of LanczosResult::basis.
LanczosResult lanczos(const LinearOperator& op, std::span<const double> v0,
                      std::size_t k, bool want_basis = false);

}  // namespace funnel::linalg
