// Planner: (sparsity pattern, options, config) -> ExecutionPlan.
//
// The planning layer absorbs every decision that used to be scattered
// across api::Solver and the executors: it runs the inspector (the
// near-linear single-transpose cold pipeline of inspect_cholesky_planned),
// builds the aggregate schedule when the parallel gates clear, and commits
// to one ExecutionPath with the profitability evidence recorded in the
// plan. Planning is a pure function of (pattern, PlannerConfig), which is
// what makes plans cacheable and shareable across Solvers and threads.
//
// A finished plan has two kinds of consumer: the interpreters (executors
// and the parallel level-set sweeps) read its sets from memory, and the
// PlanCompiler (plan_compiler.h) lowers the same sets into
// pattern-specialized compiled kernels — the evidence records which plans
// are eligible for the latter (jit_eligible), and summary() reports the
// slot's dynamic compile state.
#pragma once

#include <span>

#include "core/execution_plan.h"
#include "core/options.h"
#include "core/pattern_key.h"
#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::core {

/// Everything that steers planning: the inspection options plus the knobs
/// gating the parallel paths. Participates in the plan cache key — two
/// configs that could plan differently never share a cache entry.
struct PlannerConfig {
  SympilerOptions options;

  /// Allow the level-set parallel paths when they look profitable.
  /// Meaningless (always sequential) without SYMPILER_HAS_OPENMP.
  bool enable_parallel = true;
  /// Parallel profitability gates: enough supernodes to schedule, and wide
  /// enough average levels to beat the barrier cost per level.
  index_t parallel_min_supernodes = 256;
  double parallel_min_avg_level_width = 8.0;
  /// Coarsen committed parallel schedules (chain fusion + SIMD row
  /// bundles — see parallel/schedule.h). Off plans the identity aggregate
  /// (one task per item at its flat level), which the bench ablations and
  /// bit-identity tests compare against.
  bool coarsen_schedule = true;
};

class Planner {
 public:
  explicit Planner(PlannerConfig config = {}) : config_(config) {}

  [[nodiscard]] const PlannerConfig& config() const { return config_; }

  /// Cache key of the plan plan_cholesky would build: the pattern key of
  /// a_lower with the planner gates folded into the config hash.
  [[nodiscard]] PatternKey cholesky_key(const CscMatrix& a_lower) const;

  /// Cache key of the plan plan_trisolve would build.
  [[nodiscard]] PatternKey trisolve_key(const CscMatrix& l,
                                        std::span<const index_t> beta) const;

  /// Full Cholesky planning: inspect, schedule if profitable, pick a path.
  /// `with_key` stamps the plan's cache key — skip it (plan.key stays
  /// default) when the plan will never meet a cache, e.g. the direct
  /// executors' convenience constructors, to keep their "inspection time"
  /// free of O(nnz) key-hashing the caller throws away.
  [[nodiscard]] CholeskyPlan plan_cholesky(const CscMatrix& a_lower,
                                           bool with_key = true) const;

  /// Full triangular-solve planning. The ParallelTriSolve path is only
  /// picked for a dense RHS (|beta| == n) under vi_prune: with a sparse
  /// RHS the pruned sequential solve does strictly less work than a full
  /// level sweep, and the !vi_prune naive loop's skip-exact-zero special
  /// case cannot be replayed from the pattern alone. A parallel plan also
  /// carries the privatized update-slot map that keeps the level-set
  /// solve bit-identical to the sequential one.
  [[nodiscard]] TriSolvePlan plan_trisolve(const CscMatrix& l,
                                           std::span<const index_t> beta,
                                           bool with_key = true) const;

  /// Whether this build can run the level-set paths in parallel at all
  /// (compile-time: SYMPILER_HAS_OPENMP).
  [[nodiscard]] static bool parallel_enabled();

 private:
  [[nodiscard]] std::uint64_t gate_hash() const;

  PlannerConfig config_;
};

/// Process-wide count of transpose() calls, in the style of
/// parallel::level_schedule_builds(): regression tests pin that one cold
/// plan_cholesky performs exactly one transpose — the shared upper view
/// threaded through etree, GNP counts, and the fused pattern sweep —
/// instead of one per consumer.
[[nodiscard]] std::uint64_t planner_transpose_count();

}  // namespace sympiler::core
