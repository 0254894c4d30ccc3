#include "support/ic0.h"

#include <cmath>
#include <string>
#include <vector>

#include "solvers/trisolve.h"

namespace sympiler::lu {

IncompleteCholesky0::IncompleteCholesky0(const CscMatrix& a_lower) {
  SYMPILER_CHECK(a_lower.rows() == a_lower.cols(), "ic0: not square");
  SYMPILER_CHECK(a_lower.is_lower_triangular(), "ic0: input must be lower");
  l_ = a_lower;  // copy pattern; values overwritten by factorize
  const index_t n = a_lower.cols();
  rowpat_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p)
      if (a_lower.rowind[p] > j) ++rowpat_ptr_[a_lower.rowind[p] + 1];
  for (index_t i = 0; i < n; ++i) rowpat_ptr_[i + 1] += rowpat_ptr_[i];
  rowpat_.resize(static_cast<std::size_t>(rowpat_ptr_[n]));
  std::vector<index_t> next(rowpat_ptr_.begin(), rowpat_ptr_.end() - 1);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p)
      if (a_lower.rowind[p] > j) rowpat_[next[a_lower.rowind[p]]++] = j;
}

void IncompleteCholesky0::factorize(const CscMatrix& a_lower) {
  SYMPILER_CHECK(a_lower.same_pattern(l_), "ic0: pattern mismatch");
  const index_t n = l_.cols();
  std::vector<value_t> f(static_cast<std::size_t>(n), 0.0);
  std::vector<index_t> cursor(static_cast<std::size_t>(n), 0);
  for (index_t j = 0; j < n; ++j) {
    // Scatter A(j:n, j).
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p)
      f[a_lower.rowind[p]] = a_lower.values[p];
    // Left-looking updates restricted to the static pattern: for each k in
    // the row pattern of j, subtract L(j:n,k)*L(j,k) but only at positions
    // present in column j of the pattern (drop the rest — the IC(0) rule).
    for (index_t q = rowpat_ptr_[j]; q < rowpat_ptr_[j + 1]; ++q) {
      const index_t k = rowpat_[q];
      const index_t pj = cursor[k];
      const value_t lkj = l_.values[pj];
      for (index_t p = pj; p < l_.col_end(k); ++p) {
        const index_t i = l_.rowind[p];
        // Dropping: only apply where tril(A) has an entry. A membership
        // probe against column j's pattern would be O(log); instead apply
        // everywhere and re-zero dropped positions below, which keeps the
        // kernel branch-free. Positions outside col j's pattern are reset
        // when gathering.
        f[i] -= l_.values[p] * lkj;
      }
      cursor[k] = pj + 1;
    }
    const value_t d = f[j];
    if (!(d > 0.0))
      throw numerical_error("ic0: non-positive pivot at column " +
                            std::to_string(j));
    const value_t ljj = std::sqrt(d);
    const index_t pdiag = l_.col_begin(j);
    l_.values[pdiag] = ljj;
    f[j] = 0.0;
    const value_t inv = 1.0 / ljj;
    for (index_t p = pdiag + 1; p < l_.col_end(j); ++p) {
      const index_t i = l_.rowind[p];
      l_.values[p] = f[i] * inv;
      f[i] = 0.0;
    }
    cursor[j] = pdiag + 1;
    // Reset dropped fill positions (anything still nonzero in f whose
    // index lies in the union of updating columns). Cheap rescan of the
    // updating columns keeps f clean for the next iteration.
    for (index_t q = rowpat_ptr_[j]; q < rowpat_ptr_[j + 1]; ++q) {
      const index_t k = rowpat_[q];
      for (index_t p = l_.col_begin(k); p < l_.col_end(k); ++p)
        f[l_.rowind[p]] = 0.0;
    }
  }
  factorized_ = true;
}

void IncompleteCholesky0::apply(std::span<value_t> rz) const {
  SYMPILER_CHECK(factorized_, "ic0 apply() before factorize()");
  solvers::trisolve_naive(l_, rz);
  solvers::trisolve_transpose(l_, rz);
}

}  // namespace sympiler::lu
