// Public facade over the Sympiler pipeline: every solve enters through
// here, and every symbolic product is looked up in the sharded plan cache
// before any planning runs.
//
// The paper's decoupling makes the entire structure-specific strategy a
// pure function of the sparsity pattern: inspection sets, the level-set
// schedule, and the execution-path choice are bundled by core::Planner
// into one immutable core::ExecutionPlan. This layer turns that into
// operational leverage for services that solve many systems with
// recurring patterns (FEM Newton steps, circuit transients): the first
// factor() of a pattern pays the Planner, every later factor() of the
// same pattern — from this Solver or any other sharing the context — is
// numeric-only, schedule-free included. The cache holds
// shared_ptr<const Plan>, so cached plans outlive any one matrix or
// Solver instance; Solver itself is a thin dispatch on plan->path.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cholesky_executor.h"
#include "core/execution_plan.h"
#include "core/options.h"
#include "core/planner.h"
#include "core/symbolic_cache.h"
#include "core/trisolve_executor.h"
#include "core/workspace.h"
#include "sparse/csc.h"
#include "util/common.h"
#include "util/stats.h"

namespace sympiler::api {

/// Numeric path of a plan (see core/execution_plan.h). Re-exported: the
/// facade's callers dispatch and report on it.
using core::ExecutionPath;
using core::to_string;

/// Facade configuration: the planner inputs (core::PlannerConfig) plus
/// the cache geometry a Solver uses when it creates a private context.
struct SolverConfig : core::PlannerConfig {
  /// Byte budget and shard count of the private SymbolicContext a Solver
  /// creates when it is constructed with an explicitly null context.
  /// Ignored on the default path (sharing SymbolicContext::global() or a
  /// caller-supplied context, whose geometry was fixed at construction).
  std::size_t cache_byte_budget = core::CholeskyCache::kDefaultByteBudget;
  std::size_t cache_shards = core::CholeskyCache::kDefaultShards;

  /// Planner view of this config.
  [[nodiscard]] core::PlannerConfig planner_config() const { return *this; }
};

/// What the graceful-degradation ladder did on the most recent
/// factor()/solve() of a facade (docs/robustness.md). A degraded run still
/// produced a correct result — via a serial re-execution instead of the
/// parallel sweep, or a diagonally shifted factorization — and this record
/// says which rung served it and what failure it absorbed.
struct FactorReport {
  /// A parallel sweep hit an infrastructure fault and the same schedule
  /// was re-executed serially (bit-identical by the determinism contract).
  bool serial_fallback = false;
  /// Diagonal-shift retries consumed before the factorization succeeded
  /// (0 = the unshifted matrix factored).
  index_t shift_attempts_used = 0;
  /// The shift added to every diagonal entry on the successful attempt
  /// (0 when no shift was needed). The factorization is of A + shift * I.
  value_t shift_applied = 0.0;
  /// The symbolic phase was served by loading a persisted plan from the
  /// on-disk PlanStore (and re-verifying it) instead of replanning.
  /// Informational, not a degradation — the loaded plan is bit-identical
  /// to what the Planner would build.
  bool store_loaded = false;
  /// A persisted plan file was found but rejected — corrupt, stale, or
  /// failed load-time re-verification. Rung 4 discarded the file,
  /// replanned from the matrix, and queued a rewrite; last_error carries
  /// the rejection.
  bool store_recovered = false;
  /// The failure the ladder absorbed (the last one, when several rungs
  /// fired). kOk when nothing degraded.
  Status last_error;

  [[nodiscard]] bool degraded() const {
    return serial_fallback || shift_attempts_used > 0 || store_recovered;
  }
  /// One-line summary for logs and --explain.
  [[nodiscard]] std::string to_string() const;
};

/// Input validation run at the factor() boundary when
/// SympilerOptions::validate_input is set: full CSC structure check
/// (sorted in-bounds indices, monotone colptr), squareness, a present
/// diagonal as each column's first stored entry (i.e. a lower triangle),
/// and — when `scan_values` — an O(nnz) NaN/Inf scan. Throws
/// invalid_matrix_error (kInvalidInput) describing the first violation.
void validate_factor_input(const CscMatrix& a_lower, bool scan_values);

/// TriangularSolver-boundary counterpart: CSC structure, squareness,
/// diagonal-first columns of L, RHS pattern indices in range, and the
/// optional value scan.
void validate_trisolve_input(const CscMatrix& l, std::span<const index_t> beta,
                             bool scan_values);

/// A bundle of the two plan caches. Solvers sharing a context share whole
/// execution plans — sets, schedule, and path; the process-wide default
/// context makes that the out-of-the-box behavior.
class SymbolicContext {
 public:
  explicit SymbolicContext(
      std::size_t byte_budget = core::CholeskyCache::kDefaultByteBudget,
      std::size_t shards = core::CholeskyCache::kDefaultShards)
      : cholesky_(byte_budget, shards), trisolve_(byte_budget, shards) {}

  [[nodiscard]] core::CholeskyCache& cholesky_cache() { return cholesky_; }
  [[nodiscard]] core::TriSolveCache& trisolve_cache() { return trisolve_; }

  /// Process-wide default context (created on first use, never destroyed
  /// before its borrowers thanks to shared_ptr ownership).
  [[nodiscard]] static std::shared_ptr<SymbolicContext> global();

 private:
  core::CholeskyCache cholesky_;
  core::TriSolveCache trisolve_;
};

/// SPD solver facade: factor() + solve()/solve_batch() with cached
/// execution plans. One Solver holds one factorization at a time;
/// factor() with a new pattern re-routes automatically (and usually still
/// hits the cache if the pattern recurred).
class Solver {
 public:
  explicit Solver(SolverConfig config = {},
                  std::shared_ptr<SymbolicContext> context =
                      SymbolicContext::global());

  /// Symbolic (plan-cache lookup, plan on miss) + numeric factorization of
  /// the lower triangle of an SPD matrix. Repeated calls with the same
  /// pattern skip every symbolic step — inspection AND scheduling — except
  /// the O(nnz) key hash.
  void factor(const CscMatrix& a_lower);

  /// Solve A x = b in place (requires factor()). Borrows the Solver's
  /// plan-sized workspace: logically const but not concurrently callable
  /// on one Solver — use solve_batch for many RHS. On a parallel plan it
  /// is solve_batch with one column: the level-set sweep, bit-identical to
  /// the serial panel solves, with the same serial fallback.
  void solve(std::span<value_t> bx) const;

  /// Multi-RHS solve: `bx` holds nrhs column-major dense right-hand sides
  /// of length n; solutions overwrite them. On the supernodal paths the
  /// batch is tiled into packed RHS blocks lowered onto the multi-RHS
  /// panel kernels (trsm_lower_multi + gemm_minus_multi), bit-identical
  /// per column to looped solve() calls and parallel over blocks under
  /// OpenMP builds.
  void solve_batch(std::span<value_t> bx, index_t nrhs) const;

  /// Convenience multi-RHS overload: gathers the scattered columns into
  /// one contiguous batch (allocating O(n * nrhs) per call), runs the
  /// blocked span overload, and scatters the solutions back. Prefer the
  /// span overload on hot paths.
  void solve_batch(std::vector<std::vector<value_t>>& rhs) const;

  /// Extract L as CSC (requires factor()). On the supernodal paths each
  /// call runs one symbolic_cholesky pass over the plan's A pattern to
  /// re-derive L's exact pattern (the plan keeps no copy of it).
  [[nodiscard]] CscMatrix factor_csc() const;

  /// True when the last factor() ran no planning: its symbolic phase was
  /// served from the cache or from this Solver's standing same-pattern
  /// state.
  [[nodiscard]] bool symbolic_cached() const { return symbolic_cached_; }
  /// Numeric path the last factor() ran (valid after factor()).
  [[nodiscard]] ExecutionPath path() const { return plan()->path; }
  /// The execution plan backing the current factorization. Pointer
  /// identity across Solvers proves shared symbolic state.
  [[nodiscard]] const std::shared_ptr<const core::CholeskyPlan>& plan() const;
  /// Inspection sets backing the current factorization.
  [[nodiscard]] const core::CholeskySets& sets() const { return plan()->sets; }
  /// Aggregated counters of the underlying Cholesky plan cache.
  [[nodiscard]] CacheStats cache_stats() const;
  [[nodiscard]] const std::shared_ptr<SymbolicContext>& context() const {
    return context_;
  }
  /// Degradation record of the most recent factor() (and any solve() or
  /// solve_batch() serial fallback since). Reset at each factor().
  [[nodiscard]] const FactorReport& report() const { return report_; }
  /// True when every workspace of the current factorization (this
  /// Solver's and its sequential executor's) throws on a concurrent
  /// borrow: SympilerOptions::guard_workspace of this Solver's config, or
  /// any debug build — whoever planned a cached plan.
  [[nodiscard]] bool workspace_guarded() const {
    return ws_.guard_enabled() &&
           (executor_ == nullptr || executor_->workspace_guarded());
  }

 private:
  void prepare_symbolic(const CscMatrix& a_lower);
  /// Numeric phase behind the shift-retry ladder: one attempt at the given
  /// matrix, dispatching parallel plans to the level-set interpreter (with
  /// its serial fallback recorded) and everything else to the executor.
  void run_numeric(const CscMatrix& a_lower);
  /// The ladder itself: factor a_lower; on numeric breakdown with
  /// SympilerOptions::shift_attempts > 0, retry with growing diagonal
  /// shifts, recording the shift that succeeded in report().
  void factor_numeric(const CscMatrix& a_lower);

  SolverConfig config_;
  std::shared_ptr<SymbolicContext> context_;

  core::PatternKey key_;  ///< key of the current symbolic state
  bool has_key_ = false;
  bool symbolic_cached_ = false;
  std::shared_ptr<const core::CholeskyPlan> plan_;

  // Sequential paths run through the executor; the parallel path
  // interprets the plan's aggregate schedule into panels_ directly and uses
  // ws_ for its level-set solve sweeps (mutable: solve() is logically
  // const).
  std::unique_ptr<core::CholeskyExecutor> executor_;
  std::vector<value_t> panels_;
  mutable core::Workspace ws_;
  bool factorized_ = false;
  /// Mutable: solve() and solve_batch() are logically const but record
  /// their serial fallback here.
  mutable FactorReport report_;
};

/// Triangular-solve facade: the Lx = b pipeline (paper Figure 1) with the
/// whole plan cached per (pattern of L, pattern of b). `l` is borrowed
/// and must outlive the TriangularSolver; the plan is shared with the
/// cache and outlives both.
class TriangularSolver {
 public:
  TriangularSolver(const CscMatrix& l, std::span<const index_t> beta,
                   SolverConfig config = {},
                   std::shared_ptr<SymbolicContext> context =
                       SymbolicContext::global());

  /// Numeric solve: x holds b on entry, the solution on exit. Thin
  /// dispatch on plan->path; on the ParallelTriSolve path (planned only
  /// for dense RHS patterns under OpenMP builds) it is solve_batch(x, 1).
  void solve(std::span<value_t> x) const;

  /// Multi-RHS variant; every column must carry the planned pattern.
  void solve_batch(std::span<value_t> xs, index_t nrhs) const;

  [[nodiscard]] bool symbolic_cached() const { return symbolic_cached_; }
  [[nodiscard]] ExecutionPath path() const { return executor_.plan().path; }
  [[nodiscard]] const std::shared_ptr<const core::TriSolvePlan>& plan() const {
    return executor_.plan_ptr();
  }
  [[nodiscard]] const core::TriSolveSets& sets() const {
    return executor_.sets();
  }
  [[nodiscard]] CacheStats cache_stats() const;
  /// Degradation record of the most recent solve()/solve_batch(), plus the
  /// store outcome of the plan lookup at construction.
  [[nodiscard]] const FactorReport& report() const { return report_; }
  /// True when both workspaces (the executor's and the parallel
  /// interpreters') throw on a concurrent borrow: guard_workspace of this
  /// solver's config, or any debug build — whoever planned a cached plan.
  [[nodiscard]] bool workspace_guarded() const {
    return pws_.guard_enabled() && executor_.workspace_guarded();
  }

 private:
  /// Forget the previous call's serial fallback: the report covers one
  /// call. Allocation-free (the warm-path contract).
  void clear_fallback() const;

  std::shared_ptr<SymbolicContext> context_;
  const CscMatrix* l_;
  index_t n_ = 0;
  bool symbolic_cached_ = false;
  /// Mutable: solve()/solve_batch() are logically const but record their
  /// degradations here. Declared before executor_ on purpose: the plan
  /// lookup in executor_'s member initializer records store outcomes
  /// (store_loaded / store_recovered) into an already-constructed report.
  mutable FactorReport report_;
  core::TriSolveExecutor executor_;
  /// Plan-sized scratch of the level-set parallel interpreters: the
  /// privatized update terms and the packed RHS block (shared across the
  /// level threads; slots are disjoint by construction). Grow-only, so
  /// warm parallel solves allocate nothing. Mutable: solve() is logically
  /// const. Guarded against concurrent borrow in debug builds.
  mutable core::Workspace pws_;
};

}  // namespace sympiler::api
