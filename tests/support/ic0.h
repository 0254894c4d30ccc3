// Incomplete Cholesky IC(0) — another section-3.3 method: the same
// prune-set machinery (row patterns) drives a factorization restricted to
// the pattern of A (no fill). Used as a preconditioner; the repeated
// triangular solves it implies are the paper's motivating workload for
// the specialized trisolve. It lives beside its tests, which are its only
// caller, and keeps the namespace of its section-3.3 sibling lu::LuFactor.
#pragma once

#include <span>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::lu {

/// Zero-fill incomplete Cholesky factor of a symmetric positive definite
/// matrix stored lower: L has exactly the pattern of tril(A) and
/// minimizes (LL^T - A) on that pattern column by column.
/// Throws numerical_error if a pivot becomes non-positive (IC(0) can break
/// down on general SPD matrices; the generators' diagonally dominant
/// matrices are safe).
class IncompleteCholesky0 {
 public:
  explicit IncompleteCholesky0(const CscMatrix& a_lower);  // symbolic
  void factorize(const CscMatrix& a_lower);                // numeric
  [[nodiscard]] const CscMatrix& factor() const { return l_; }
  /// Apply the preconditioner: z = (L L^T)^{-1} r, in place.
  void apply(std::span<value_t> rz) const;

 private:
  CscMatrix l_;  // pattern == tril(A)
  // Prune-sets: row pattern of each row of tril(A) (CSR of the strictly
  // lower triangle), precomputed by the symbolic phase.
  std::vector<index_t> rowpat_ptr_;
  std::vector<index_t> rowpat_;
  bool factorized_ = false;
};

}  // namespace sympiler::lu
