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
//  * peeled single-target-column updates when the low-level
//    transformations are on and the column-count heuristic picks the
//    specialized forms (the supernode body in core/supernode_body.h);
//    the dense kernels run unrolled small kernels on their diagonal
//    blocks.
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

class CholeskyExecutor {
 public:
  /// Convenience: plan on the spot ("compile time"), sequential paths
  /// only. Pattern is fixed after.
  explicit CholeskyExecutor(const CscMatrix& a_lower, SympilerOptions opt = {});

  /// Pure interpreter over a precomputed (typically cached) plan: no
  /// symbolic work, no decisions. `plan` must have been produced by
  /// core::Planner on the pattern of the matrices later passed to
  /// factorize() — the plan cache key guarantees this.
  explicit CholeskyExecutor(std::shared_ptr<const CholeskyPlan> plan);

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

  /// Extract L as CSC (for inspection and the triangular-solve pipeline).
  [[nodiscard]] CscMatrix factor_csc() const;

  [[nodiscard]] const CholeskyPlan& plan() const { return *plan_; }
  [[nodiscard]] const std::shared_ptr<const CholeskyPlan>& plan_ptr() const {
    return plan_;
  }
  [[nodiscard]] const CholeskySets& sets() const { return plan_->sets; }
  [[nodiscard]] bool vs_block_applied() const {
    return plan_->path != ExecutionPath::Simplicial;
  }
  /// True when the plan runs the specialized supernode forms (peeled
  /// single-target-column updates) — the paper's column-count BLAS switch.
  [[nodiscard]] bool specialized_kernels() const { return specialized_; }
  [[nodiscard]] double flops() const { return plan_->sets.flops(); }

 private:
  void factorize_supernodal(const CscMatrix& a_lower);
  void factorize_simplicial(const CscMatrix& a_lower);

  std::shared_ptr<const CholeskyPlan> plan_;  ///< shared with the cache
  const CholeskySets* sets_ = nullptr;        ///< &plan_->sets
  bool specialized_ = false;
  std::vector<value_t> panels_;  ///< supernodal factor storage
  CscMatrix l_;                  ///< simplicial factor storage
  /// Plan-sized numeric scratch (update tiles, scatter map, solve tails);
  /// mutable because solve() is logically const but borrows it.
  mutable Workspace ws_;
  bool factorized_ = false;
};

}  // namespace sympiler::core
