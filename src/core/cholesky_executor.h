// Sympiler Cholesky executor: numeric-only left-looking factorization
// driven entirely by a precomputed ExecutionPlan.
//
// Differences from the library baselines (what "fully decoupled" buys,
// paper section 4.2):
//  * no transpose of A in the numeric phase — the prune-sets (row
//    patterns) were computed by the Planner;
//  * no reach/ereach traversals at numeric time — the supernodal update
//    schedule is a static list;
//  * no path decisions at numeric time — the plan already committed to
//    simplicial vs supernodal from its profitability evidence;
//  * one form per supernodal update, a trapezoid tile and its scatter
//    (the supernode body in core/supernode_body.h); the dense kernels
//    run unrolled small kernels on their diagonal blocks;
//  * no copy of the symbolic products: a simplicial executor reads L's
//    pattern from the plan and owns only an nnz(L) value buffer, and its
//    column updates take a dense unit-stride loop wherever the sorted
//    pattern shows one contiguous row run (dense_row_run below).
//
// A plan whose path is ParallelSupernodal is interpreted sequentially here
// (the sets and layout are identical); parallel::parallel_cholesky is its
// parallel interpreter, and runs the same supernode body, so the two
// agree bit for bit.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/execution_plan.h"
#include "core/options.h"
#include "core/workspace.h"
#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::core {

/// Shortest row run the simplicial loops (the factor's left-looking
/// update and the forward solve's column update) take as a dense
/// unit-stride loop; shorter runs and scattered rows keep the indexed
/// loop. Both loops do the same multiply-then-subtract per element, so
/// the choice never changes a bit, only speed: on an AVX-512 Xeon the
/// dense loop beats the indexed one from 2 rows in the library's
/// baseline-ISA build and from 4 rows under -march=native (the JIT's
/// flags), where shorter runs pay for the vector loop's set-up. The
/// PlanCompiler's simplicial emission bakes the same constant.
inline constexpr index_t kDenseRunMin = 4;

/// Whether positions [pb, pe) of a sorted column pattern hold one
/// contiguous row run of at least kDenseRunMin rows. O(1): sorted
/// distinct rows are contiguous iff the last minus the first equals the
/// count minus one.
[[nodiscard]] inline bool dense_row_run(const index_t* rowind, index_t pb,
                                        index_t pe) {
  return pe - pb >= kDenseRunMin && rowind[pe - 1] - rowind[pb] == pe - 1 - pb;
}

/// Share of the update entries (multiply-subtracts) of the simplicial
/// factor and of its forward solve that run in the dense loop, from L's
/// pattern alone: column k's update of each later row r of its pattern
/// covers the rows from r to the column's end. 0 for an empty pattern.
struct DenseRunShare {
  double factor = 0.0;
  double solve = 0.0;
};
[[nodiscard]] DenseRunShare dense_run_share(const CscMatrix& l_pattern);

class CholeskyExecutor {
 public:
  /// Convenience: plan on the spot ("compile time"), sequential paths
  /// only. Pattern is fixed after.
  explicit CholeskyExecutor(const CscMatrix& a_lower, SympilerOptions opt = {});

  /// Pure interpreter over a precomputed (typically cached) plan: no
  /// symbolic work, no decisions. `plan` must have been produced by
  /// core::Planner on the pattern of the matrices later passed to
  /// factorize() — the plan cache key guarantees this. `guard_workspace`
  /// is the owner's SympilerOptions::guard_workspace: the plan's own copy
  /// may come from another owner, since the option is not part of the
  /// plan key.
  explicit CholeskyExecutor(std::shared_ptr<const CholeskyPlan> plan,
                            bool guard_workspace = false);

  /// Numeric factorization of a matrix with the planned pattern. A warm
  /// call (same executor, pattern already planned) performs zero heap
  /// allocations: all scratch lives in the plan-sized Workspace.
  void factorize(const CscMatrix& a_lower);

  /// Solve A x = b in place (requires factorize()). Borrows the executor's
  /// workspace: logically const, but not concurrently callable on one
  /// executor — use solve_batch for many RHS.
  void solve(std::span<value_t> bx) const;

  /// Blocked multi-RHS solve: `bx` holds nrhs column-major dense RHS of
  /// length n, overwritten by the solutions. On the supernodal path the
  /// batch is tiled into packed RHS blocks driven through the multi-RHS
  /// panel kernels (bit-identical per column to looped solve() calls, and
  /// parallel over blocks under OpenMP); the simplicial path loops.
  void solve_batch(std::span<value_t> bx, index_t nrhs) const;

  /// Extract L as CSC (for inspection and the triangular-solve pipeline):
  /// L's exact pattern filled with the factor's values. A copy of the
  /// plan's pattern on the simplicial path; on the supernodal paths, whose
  /// plans keep A's pattern instead, one symbolic_cholesky pass per call
  /// re-derives it (CholeskySets::factor_pattern).
  [[nodiscard]] CscMatrix factor_csc() const;

  [[nodiscard]] const CholeskyPlan& plan() const { return *plan_; }
  [[nodiscard]] const std::shared_ptr<const CholeskyPlan>& plan_ptr() const {
    return plan_;
  }
  [[nodiscard]] const CholeskySets& sets() const { return plan_->sets; }
  [[nodiscard]] bool vs_block_applied() const {
    return plan_->path != ExecutionPath::Simplicial;
  }
  [[nodiscard]] double flops() const { return plan_->sets.flops(); }
  /// True when a concurrent borrow of this executor's workspace throws
  /// (the guard_workspace opt-in, or any debug build).
  [[nodiscard]] bool workspace_guarded() const { return ws_.guard_enabled(); }

 private:
  void factorize_supernodal(const CscMatrix& a_lower);
  void factorize_simplicial(const CscMatrix& a_lower);

  void forward_simplicial(value_t* x) const;
  void backward_simplicial(value_t* x) const;

  std::shared_ptr<const CholeskyPlan> plan_;  ///< shared with the cache
  const CholeskySets* sets_ = nullptr;        ///< &plan_->sets
  /// Factor storage, the executor's only copy of anything: the supernodal
  /// panels, or L's values over the plan's pattern (sets_->sym.l_pattern)
  /// on the simplicial path.
  std::vector<value_t> values_;
  /// Plan-sized numeric scratch (update tiles, scatter map, solve tails);
  /// mutable because solve() is logically const but borrows it.
  mutable Workspace ws_;
  bool factorized_ = false;
};

}  // namespace sympiler::core
