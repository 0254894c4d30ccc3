// ExecutionPlan: the complete structure-specific strategy for one sparse
// kernel, as a single immutable artifact.
//
// The paper's decoupling makes symbolic analysis a pure function of the
// sparsity pattern — but the inspection sets are only part of what that
// function produces. The parallel schedule and the choice of numeric
// path (simplicial vs supernodal vs parallel) are equally pattern-pure,
// so they belong in the same compile-time product. A plan bundles all of
// it: inspection sets, the aggregate schedule and slot map of a parallel
// path, the chosen ExecutionPath, the profitability evidence that picked
// it, the options snapshot it was planned under, and a bytes() accounting
// that drives the plan cache's byte-budget eviction.
//
// Plans are built by core::Planner (planner.h), cached by the sharded
// PlanCache (symbolic_cache.h) as shared_ptr<const Plan>, and interpreted
// by the executors — which do no symbolic work and make no decisions.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/compiled_kernel.h"
#include "core/inspector.h"
#include "core/options.h"
#include "core/pattern_key.h"
#include "core/workspace.h"
#include "parallel/levelset.h"

namespace sympiler::core {

/// Numeric interpreter a plan selects. Chosen once at plan time from the
/// profitability evidence; executors dispatch on it without rediscovery.
enum class ExecutionPath {
  Simplicial,          ///< VI-Prune-only left-looking (VS-Block unprofitable)
  Supernodal,          ///< sequential supernodal Cholesky executor
  ParallelSupernodal,  ///< level-set parallel supernodal (OpenMP builds)
  PrunedTriSolve,      ///< reach-set column solve (VS-Block unprofitable)
  BlockedTriSolve,     ///< VS-Block supernodal triangular solve
  ParallelTriSolve,    ///< level-set parallel column solve (dense RHS)
};

[[nodiscard]] const char* to_string(ExecutionPath path);

/// Why the Planner picked the path it picked — kept in the plan so the
/// decision is auditable (sympiler_cli --explain) and so cache eviction
/// can weigh recompute cost.
struct PlanEvidence {
  bool vs_block_profitable = false;   ///< inspection profitability gate
  bool parallel_considered = false;   ///< parallel gates were evaluated
  double avg_supernode_size = 0.0;    ///< rows, participating supernodes
                                      ///< of the gate's partition
  index_t fundamental_supernodes = 0; ///< partition the VS-Block gate read
  index_t supernodes = 0;             ///< block-set size (amalgamated on
                                      ///< supernodal Cholesky paths)
  index_t levels = 0;                 ///< level-set depth (0 = no schedule)
  double avg_level_width = 0.0;       ///< items per level
  index_t agg_levels = 0;             ///< barriers of the executed schedule
                                      ///< (0 = no parallel path)
  index_t agg_tasks = 0;              ///< tasks (chains + bundles) it runs
  index_t agg_bundles = 0;            ///< lock-step SIMD bundles among tasks
  double build_seconds = 0.0;         ///< wall time spent planning (cost to
                                      ///< recompute; weighs eviction). No
                                      ///< key hash: a store load pays one
                                      ///< too, so it is not planning.
  /// Per-phase cold-planning breakdown (etree / counts / pattern /
  /// schedule / slotmap seconds — the cache_reuse bench emits these).
  PlanPhaseTimes phases;
};

/// Plan for sparse Cholesky A = L L^T over one sparsity pattern.
struct CholeskyPlan {
  PatternKey key;                    ///< identity of (pattern, config)
  SympilerOptions options;           ///< snapshot the plan was built under
  CholeskySets sets;                 ///< inspection sets (owned)
  /// Always empty: flat levels are a transient coarsener input, kept
  /// declared only because perfbench's plan census still reads it.
  parallel::LevelSchedule schedule;
  /// Privatized tail-update slots of the parallel forward panel solve
  /// (one per below-diagonal panel row); empty unless path ==
  /// ParallelSupernodal. Makes the level-set batch solve deterministic
  /// without atomics.
  parallel::UpdateSlotMap solve_update_map;
  /// Supernode schedule the parallel executors interpret: chain fusion
  /// over the supernodal update dependences, or the identity aggregate
  /// when coarsening is off. Non-empty exactly when path ==
  /// ParallelSupernodal.
  parallel::AggregateSchedule agg;
  ExecutionPath path = ExecutionPath::Simplicial;
  PlanEvidence evidence;
  /// Numeric scratch sizes this plan implies (executors size their
  /// Workspace from these once, before the first numeric call).
  WorkspaceDims workspace;
  /// Write-once slot for the plan-compiled kernel (plan_compiler.h) — the
  /// one mutable corner of the plan, held by shared_ptr so plans stay
  /// movable. Executors adopt a published kernel on their next call.
  std::shared_ptr<JitSlot> jit = std::make_shared<JitSlot>();

  /// Total heap footprint of the artifact — the plan cache's eviction
  /// weight (entries are weighed by bytes, not counted, and sampled at
  /// insert). Includes the compiled kernel once one is published.
  [[nodiscard]] std::size_t bytes() const {
    return sizeof(CholeskyPlan) + sets.bytes() + agg.bytes() +
           solve_update_map.bytes() + jit->bytes();
  }

  /// One-paragraph human summary (CLI --explain).
  [[nodiscard]] std::string summary() const;
};

/// Plan for sparse triangular solve L x = b over one (pattern of L,
/// pattern of b) pair.
struct TriSolvePlan {
  PatternKey key;
  SympilerOptions options;
  TriSolveSets sets;
  /// Always empty (see CholeskyPlan::schedule).
  parallel::LevelSchedule schedule;
  /// Privatized column-update slots (one per strictly-lower nonzero of L);
  /// empty unless path == ParallelTriSolve. The level-set solve scatters
  /// into these instead of racing on x, so it is bit-identical to the
  /// serial pruned solve at any thread count.
  parallel::UpdateSlotMap update_map;
  /// Column schedule the parallel executors interpret (chain fusion + SIMD
  /// row bundles over DG_L, or the identity aggregate when coarsening is
  /// off); non-empty exactly when path == ParallelTriSolve.
  parallel::AggregateSchedule agg;
  ExecutionPath path = ExecutionPath::PrunedTriSolve;
  PlanEvidence evidence;
  /// Numeric scratch sizes this plan implies.
  WorkspaceDims workspace;
  /// Write-once slot for the plan-compiled kernel (see CholeskyPlan::jit).
  std::shared_ptr<JitSlot> jit = std::make_shared<JitSlot>();

  [[nodiscard]] std::size_t bytes() const {
    return sizeof(TriSolvePlan) + sets.bytes() + agg.bytes() +
           update_map.bytes() + jit->bytes();
  }

  [[nodiscard]] std::string summary() const;
};

}  // namespace sympiler::core
