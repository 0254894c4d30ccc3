// Symbolic Cholesky analysis: row patterns (ereach), the full fill pattern
// of L (paper Eq. 1), and column counts.
//
// These are the Cholesky inspection strategies of paper Table 1:
//   VI-Prune : etree + SP(A), single-node up-traversal -> prune-set SP(L_j*)
//   VS-Block : etree + ColCount(A), up-traversal        -> block-set
//
// Cold planning runs the near-linear pipeline: Gilbert–Ng–Peyton skeleton
// column counts (O(|A| alpha(n)), no ereach materialization) followed by
// one fused ereach sweep that writes the pattern of L straight into
// exact-presized flat arrays, already sorted, from one shared
// transpose(A). The retired two-pass ereach implementation is retained as
// symbolic_cholesky_naive, the bit-identical reference the equivalence
// tests pin the fast path against.
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler {

/// Work-space and precomputed structure for repeated ereach queries.
/// `upper` is transpose(a_lower): its column i holds the entries A(i, j),
/// j <= i, i.e. row i of the lower triangle.
class ERreach {
 public:
  ERreach(const CscMatrix& a_lower, std::span<const index_t> parent);

  /// Nonzero pattern of row i of L, *excluding* the diagonal, in
  /// topological (elimination) order: exactly the columns whose updates
  /// column i's factorization consumes. This is the Cholesky prune-set.
  /// The returned span aliases internal storage valid until the next call.
  [[nodiscard]] std::span<const index_t> row_pattern(index_t i);

 private:
  CscMatrix upper_;
  std::vector<index_t> parent_;
  std::vector<index_t> mark_;   // mark_[v] == stamp_ <=> visited this query
  index_t stamp_ = 0;           // per-query epoch; avoids clearing mark_
  std::vector<index_t> out_;    // result buffer
  std::vector<index_t> stack_;
};

/// Result of the full symbolic factorization.
struct SymbolicFactor {
  std::vector<index_t> parent;     ///< elimination tree
  std::vector<index_t> colcount;   ///< nnz(L(:,j)) including the diagonal
  CscMatrix l_pattern;             ///< pattern of L, values allocated = 0
                                   ///< (none in a planned Cholesky plan)
  std::int64_t fill_nnz = 0;       ///< nnz(L)
  double flops = 0.0;              ///< factorization flops: sum cc_j^2

  /// Heap bytes of the symbolic product (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return (parent.size() + colcount.size()) * sizeof(index_t) +
           l_pattern.bytes();
  }
};

/// Gilbert–Ng–Peyton column counts: colcount[j] = nnz(L(:, j)) including
/// the diagonal, computed from the skeleton matrix without materializing
/// any row pattern. For each entry A(i, j) the leaf test (first-descendant
/// intervals) decides whether j starts a new path in row i's subtree; the
/// overlap with the previous leaf is charged to their least common
/// ancestor, found by path-compressed union-find. O(|A| * alpha(n)) — the
/// near-linear half of cold planning, replacing the naive
/// count-every-ereach pass. `post` must be a postorder of `parent`.
[[nodiscard]] std::vector<index_t> cholesky_counts(
    const CscMatrix& a_lower, std::span<const index_t> parent,
    std::span<const index_t> post);

/// Fill the pattern of L in one fused sweep into exact-presized flat
/// arrays: colptr comes from `colcount`, then one ereach-style row sweep
/// over `upper` (= transpose(a_lower)) emits every entry directly at its
/// final position. Visiting rows in ascending order makes every column's
/// row list come out sorted — no per-column buckets, no per-row sort, and
/// no intermediate row buffer (entries are written during the etree climb
/// itself). `with_values` controls whether the |L|-sized zero value array
/// is allocated (planned Cholesky plans skip it: executors own their
/// factor values). When
/// `row_offdiag` is non-null it receives each row's off-diagonal entry
/// count (size n) — the rowpat histogram, free from this sweep.
/// O(|A| + |L|) time.
[[nodiscard]] CscMatrix cholesky_fill_pattern(
    const CscMatrix& upper, std::span<const index_t> parent,
    std::span<const index_t> colcount, bool with_values = true,
    std::vector<index_t>* row_offdiag = nullptr);

/// Compute the elimination tree, GNP column counts, and the exact pattern
/// of L (paper Eq. 1) via the fused sweep above. O(|A| alpha(n) + |L|)
/// time, one transpose. The overload taking `upper` = transpose(a_lower)
/// reuses a caller-provided shared view and performs no transpose at all.
[[nodiscard]] SymbolicFactor symbolic_cholesky(const CscMatrix& a_lower);
[[nodiscard]] SymbolicFactor symbolic_cholesky(const CscMatrix& a_lower,
                                               const CscMatrix& upper);

/// The retired textbook implementation: count by materializing every
/// ereach (one full row-pattern pass with per-row sorts), then a second
/// ereach pass to fill. O(|L| log d) time, two transposes. Retained as
/// the `_naive` reference the equivalence tests pin the fused/GNP path
/// against, bit for bit.
[[nodiscard]] SymbolicFactor symbolic_cholesky_naive(const CscMatrix& a_lower);

/// Reference implementation of Eq. 1 directly: pattern of column j is
/// A(j:n, j) union of children patterns minus their diagonals. Quadratic
/// worst case; used by tests to cross-check symbolic_cholesky.
[[nodiscard]] CscMatrix symbolic_cholesky_reference(const CscMatrix& a_lower);

}  // namespace sympiler
