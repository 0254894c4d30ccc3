// Supernodal storage layout and the CHOLMOD-like left-looking supernodal
// Cholesky baseline.
//
// The layout (rows lists + dense panels) is shared with the Sympiler
// executors in core/: the *data structure* is the same, what differs is
// how much of the schedule is precomputed symbolically (CHOLMOD discovers
// descendant supernodes with dynamic linked lists during the numeric
// phase; Sympiler's inspector emits the full static update schedule).
#pragma once

#include <span>
#include <vector>

#include "graph/supernodes.h"
#include "graph/symbolic.h"
#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::solvers {

/// Symbolic supernodal layout of the factor L.
struct SupernodalLayout {
  index_t n = 0;
  SupernodePartition sn;
  /// Row indices of each supernode panel: srows[srow_ptr[s]..srow_ptr[s+1])
  /// are the rows of supernode s; the first width(s) of them are the
  /// supernode's own columns (dense triangular block).
  std::vector<index_t> srow_ptr;
  std::vector<index_t> srows;
  /// Dense panel of supernode s occupies values[panel_ptr[s] ..
  /// panel_ptr[s+1]) in column-major order with leading dim nrows(s).
  std::vector<std::int64_t> panel_ptr;
  double flops = 0.0;  ///< factorization flop estimate (sum colcount^2)

  [[nodiscard]] index_t nsuper() const { return sn.count(); }
  [[nodiscard]] index_t width(index_t s) const { return sn.width(s); }
  [[nodiscard]] index_t nrows(index_t s) const {
    return srow_ptr[s + 1] - srow_ptr[s];
  }
  [[nodiscard]] std::int64_t total_values() const { return panel_ptr.back(); }

  /// Heap bytes of the layout arrays (plan-size accounting; the numeric
  /// panels are owned by executors, not the layout).
  [[nodiscard]] std::size_t bytes() const {
    return sn.bytes() + (srow_ptr.size() + srows.size()) * sizeof(index_t) +
           panel_ptr.size() * sizeof(std::int64_t);
  }

  /// Build from the pattern of L and a fundamental or amalgamated
  /// partition (graph/supernodes.h), which the layout takes over. The rows
  /// of supernode s are its own columns followed by the below-diagonal
  /// pattern of its last column; for a fundamental supernode that is
  /// exactly its first column's pattern, for an amalgamated one it
  /// contains every member column's pattern, and the rows a column lacks
  /// are explicit zeros.
  static SupernodalLayout build(const FactorPattern& sym,
                                SupernodePartition partition);
};

/// One update: descendant supernode d contributes rows [p1, p2) of its row
/// list (indices relative to srow_ptr[d]) to the target's columns, and rows
/// [p1, end) to the target's rows.
struct UpdateRef {
  index_t d = 0;
  index_t p1 = 0;
  index_t p2 = 0;
};

/// Static per-supernode update schedule (what Sympiler's symbolic
/// inspector precomputes; CHOLMOD instead discovers this dynamically).
struct UpdateLists {
  std::vector<index_t> ptr;     ///< nsuper + 1
  std::vector<UpdateRef> refs;  ///< updates targeting supernode s in
                                ///< refs[ptr[s]..ptr[s+1])

  /// Heap bytes of the schedule (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return ptr.size() * sizeof(index_t) + refs.size() * sizeof(UpdateRef);
  }
};
[[nodiscard]] UpdateLists compute_update_lists(const SupernodalLayout& layout);

/// Zero local columns [j0, j1) of supernode s's panel and scatter A's
/// matching columns into them ([0, width(s)) is the whole panel). `map`
/// must already map every row of s's panel to its local position
/// (map[srows[srow_ptr[s] + t]] == t) — the executors build that map at
/// the top of each supernode's body anyway, so scattering there costs no
/// second pass over the panels.
void scatter_supernode(const SupernodalLayout& layout,
                       const CscMatrix& a_lower, index_t s, index_t j0,
                       index_t j1, value_t* panel, const index_t* map);

/// Convert factored panels to a CSC lower-triangular factor on the exact
/// symbolic pattern `l_pattern` (the pattern the layout was built from):
/// explicit zeros of amalgamated panels are dropped, so the result has the
/// same pattern as a simplicial factor of the same matrix.
[[nodiscard]] CscMatrix panels_to_csc(const SupernodalLayout& layout,
                                      std::span<const value_t> panels,
                                      const CscMatrix& l_pattern);

/// Supernodal forward solve L y = b over panels; x: b in, y out. `scratch`
/// is caller workspace of at least max_tail(layout) entries; the 3-arg
/// overload allocates it per call.
void panel_forward_solve(const SupernodalLayout& layout,
                         std::span<const value_t> panels, std::span<value_t> x,
                         std::span<value_t> scratch);
void panel_forward_solve(const SupernodalLayout& layout,
                         std::span<const value_t> panels,
                         std::span<value_t> x);

/// Supernodal backward solve L^T x = y over panels.
void panel_backward_solve(const SupernodalLayout& layout,
                          std::span<const value_t> panels, std::span<value_t> x,
                          std::span<value_t> scratch);
void panel_backward_solve(const SupernodalLayout& layout,
                          std::span<const value_t> panels,
                          std::span<value_t> x);

/// Largest below-diagonal row count of any supernode (tail scratch size).
[[nodiscard]] index_t max_tail_rows(const SupernodalLayout& layout);

/// Multi-RHS supernodal solves over an RHS-major packed block: X(i, r) at
/// xp[r + i * ldp], nrhs <= blas::kRhsBlockMax. `tail` is caller scratch of
/// at least max_tail_rows(layout) * ldp values. Per RHS column the
/// arithmetic is bit-identical to the single-RHS panel solves — blocking
/// changes data movement (panels stream once per block instead of once per
/// RHS; the r-loop is the unit-stride SIMD direction), never the per-column
/// operation sequence.
void panel_forward_solve_multi(const SupernodalLayout& layout,
                               std::span<const value_t> panels, value_t* xp,
                               index_t nrhs, index_t ldp, value_t* tail);
void panel_backward_solve_multi(const SupernodalLayout& layout,
                                std::span<const value_t> panels, value_t* xp,
                                index_t nrhs, index_t ldp, value_t* tail);

/// CHOLMOD-like supernodal left-looking Cholesky.
///
/// The symbolic phase (constructor) is reusable across factorizations of
/// matrices with the same pattern — mirroring cholmod_analyze, including
/// its default relaxed supernode amalgamation — but the numeric phase
/// retains the symbolic-flavoured work the paper calls out: the transpose
/// of A and the dynamic descendant-list traversal.
class SupernodalCholesky {
 public:
  explicit SupernodalCholesky(const CscMatrix& a_lower,
                              SupernodeOptions opt = {});

  /// Numeric factorization; pattern of a_lower must match the analyzed one.
  void factorize(const CscMatrix& a_lower);

  /// Solve A x = b in place (requires factorize() first).
  void solve(std::span<value_t> bx) const;

  [[nodiscard]] const SupernodalLayout& layout() const { return layout_; }
  [[nodiscard]] std::span<const value_t> panels() const { return panels_; }
  [[nodiscard]] CscMatrix factor_csc() const {
    return panels_to_csc(layout_, panels_, l_pattern_);
  }
  [[nodiscard]] double flops() const { return layout_.flops; }

 private:
  SupernodalLayout layout_;
  CscMatrix l_pattern_;  ///< exact pattern of L (factor_csc)
  std::vector<value_t> panels_;
  bool factorized_ = false;
};

}  // namespace sympiler::solvers
