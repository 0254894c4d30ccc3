// Sympiler triangular-solve executor: the numeric-only solver driven by a
// precomputed ExecutionPlan (paper Figure 1e semantics).
//
// The executor runs exactly the schedule the generated C code runs — the
// VS-Block supernodal traversal restricted to the supernode-level
// prune-set, with peeled single-column supernodes and unrolled/vectorized
// inner loops — but reads the sets from memory instead of having them
// baked into the instruction stream. PlanCompiler (plan_compiler.h) emits
// the baked-constant C version; tests assert both produce identical
// results.
//
// A plan whose path is ParallelTriSolve is interpreted sequentially here
// (via the pruned path); parallel::parallel_trisolve is its parallel
// interpreter.
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

class TriSolveExecutor {
 public:
  /// Convenience: plan on the spot ("compile time"). `l` is borrowed and
  /// must outlive the executor; its pattern and the pattern of beta are
  /// fixed from this point on.
  TriSolveExecutor(const CscMatrix& l, std::span<const index_t> beta,
                   SympilerOptions opt = {});

  /// Pure interpreter over a precomputed (typically cached) plan: no
  /// symbolic work, no decisions. `plan` must have been produced by
  /// core::Planner on the pattern of `l` (and the intended beta) — the
  /// plan cache key guarantees this. `guard_workspace` is the owner's
  /// SympilerOptions::guard_workspace (not part of the plan key, so the
  /// plan's own copy may come from another owner).
  TriSolveExecutor(std::shared_ptr<const TriSolvePlan> plan,
                   const CscMatrix& l, bool guard_workspace = false);

  /// Numeric solve: x holds b on entry (with the planned pattern), the
  /// solution on exit. No symbolic work happens here.
  void solve(std::span<value_t> x) const;

  /// Blocked multi-RHS solve: `xs` holds nrhs column-major dense RHS of
  /// length n, every column carrying the planned pattern. On the
  /// BlockedTriSolve path the batch is tiled into packed RHS blocks and
  /// swept through the supernodal traversal once per block (solve() is
  /// the same sweep over one column, so the two are bit-identical per
  /// column); other paths loop.
  void solve_batch(std::span<value_t> xs, index_t nrhs) const;

  [[nodiscard]] const TriSolvePlan& plan() const { return *plan_; }
  [[nodiscard]] const std::shared_ptr<const TriSolvePlan>& plan_ptr() const {
    return plan_;
  }
  [[nodiscard]] const TriSolveSets& sets() const { return plan_->sets; }
  [[nodiscard]] bool vs_block_applied() const {
    return plan_->path == ExecutionPath::BlockedTriSolve;
  }
  [[nodiscard]] double flops() const { return plan_->sets.flops; }
  /// True when a concurrent borrow of this executor's workspace throws
  /// (the guard_workspace opt-in, or any debug build).
  [[nodiscard]] bool workspace_guarded() const { return ws_.guard_enabled(); }

 private:
  void solve_pruned(std::span<value_t> x) const;
  /// The blocked sweep over an RHS-major packed block of nrhs columns
  /// (X(i, r) at xp[r + i * ldp]); solve() runs it on x with one column.
  void solve_blocked_multi(value_t* xp, index_t nrhs, index_t ldp,
                           value_t* tail) const;

  const CscMatrix* l_;
  std::shared_ptr<const TriSolvePlan> plan_;  ///< shared with the cache
  const TriSolveSets* sets_ = nullptr;        ///< &plan_->sets
  /// Plan-sized scratch: single-RHS tail buffer up front, packed RHS block
  /// + tail block grown on the first solve_batch (then reused, zero
  /// steady-state allocation). Mutable: solve() is logically const.
  mutable Workspace ws_;
};

}  // namespace sympiler::core
