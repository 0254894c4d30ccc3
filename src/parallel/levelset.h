// Level-set (wavefront) parallel executors — the paper's stated extension
// direction ("the transformations ... should extend to improve performance
// on shared and distributed memory systems"; realized by the authors'
// ParSy follow-on). The symbolic inspector computes one more inspection
// set: a schedule of the dependence structure, coarsened into an
// AggregateSchedule (parallel/schedule.h); tasks within an aggregate level
// are independent and run in parallel (OpenMP when built with
// SYMPILER_HAS_OPENMP, sequentially otherwise), and a fused chain runs its
// members in order on one thread.
//
// Determinism. Two same-level items can update the same later row, which
// a naive wavefront would resolve with atomics — making result bits vary
// run to run and silently breaking the repo's bit-identity contract. The
// executors here instead use level-private accumulation: the symbolic
// phase assigns every cross-item update a private slot in a terms buffer
// (UpdateSlotMap — the row-major transpose of the update pattern), each
// producer writes its terms into its own slots with no synchronization,
// and the consumer row folds its incoming terms in ascending-source
// order when it is solved. That fold is exactly the serial subtraction
// sequence, so the parallel solve is bit-identical to the sequential
// executor and invariant to the thread count — by construction, not by
// tolerance.
//
// The aggregate schedule and slot map are part of a core::ExecutionPlan:
// the Planner builds them once per pattern and the plan-driven overloads
// below interpret them.
//
// Failure domains. Every parallel region below contains exceptions with a
// util::AbortGuard — the first throw turns every remaining task body into
// a no-op (the level loops themselves never branch on the flag, keeping
// the worksharing sequence uniform across the team) and is rethrown once,
// outside the region, so a mid-sweep failure can never std::terminate the
// process or strand threads on mismatched barriers. The plan-driven overloads additionally
// degrade: an infrastructure fault (workspace growth, injected faults)
// triggers a serial re-execution of the same schedule — bit-identical by
// the determinism contract — and the overload reports the degradation to
// its caller instead of failing the solve. Numeric pivot failures in the
// Cholesky sweep are data errors (a serial re-run would hit the same
// pivot), so they propagate to the facade's shift-retry ladder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/inspector.h"
#include "parallel/schedule.h"
#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::core {
struct CholeskyPlan;   // core/execution_plan.h
struct TriSolvePlan;
class Workspace;       // core/workspace.h
}  // namespace sympiler::core

namespace sympiler::solvers {
struct SupernodalLayout;  // solvers/supernodal.h
}  // namespace sympiler::solvers

namespace sympiler::parallel {

// AggregateSchedule / UpdateSlotMap and their builders live in
// parallel/schedule.h (shared with the planning layer); this header holds
// the executors that interpret them.

/// Parallel full forward solve L x = b over an aggregate schedule and slot
/// map: fused chains run sequentially on one thread, SIMD bundles go
/// through the ISA-dispatched bundle kernels (blas/bundle.h). `terms` is
/// caller scratch of at least umap.slots() values. Bit-identical to the
/// sequential pruned solve and deterministic across runs and thread
/// counts (see the header comment).
void parallel_trisolve(const CscMatrix& l, const AggregateSchedule& agg,
                       const UpdateSlotMap& umap, std::span<value_t> x,
                       std::span<value_t> terms);

/// Plan-driven interpreter: runs the aggregate schedule + slot map carried
/// by a trisolve plan whose path is ExecutionPath::ParallelTriSolve. It is
/// parallel_trisolve_batch over one column: `ws` is the caller's
/// plan-sized workspace (the shared terms buffer and a one-column packed
/// block; grow-only, so a warm solve allocates nothing), and the return
/// value and `*fallback_error` are the batch's.
bool parallel_trisolve(const CscMatrix& l, const core::TriSolvePlan& plan,
                       std::span<value_t> x, core::Workspace& ws,
                       Status* fallback_error = nullptr);

/// Plan-driven blocked multi-RHS level-set solve: `xs` holds nrhs
/// column-major dense RHS of length n. RHS columns are tiled into packed
/// blocks (core::rhs_block_width) and each block sweeps the aggregate
/// schedule once — bundle lanes run sequentially there, since the RHS loop
/// is already the vector direction; per column the result is
/// bit-identical to looped single-RHS solves. `ws` carries the packed
/// block and terms buffers. A failing block is repacked from its (still
/// pristine) input columns and re-swept serially; returns true when any
/// block degraded, recording the first failure in `*fallback_error` when
/// non-null.
bool parallel_trisolve_batch(const CscMatrix& l, const core::TriSolvePlan& plan,
                             std::span<value_t> xs, index_t nrhs,
                             core::Workspace& ws,
                             Status* fallback_error = nullptr);

/// Parallel supernodal left-looking Cholesky using the static inspection
/// sets plus a supernode aggregate schedule. Writes the factor into
/// `panels` (layout in sets.layout). A level of two or more tasks hands
/// them to the team one at a time (dynamic scheduling); a fused chain
/// factors its supernodes in order on one thread. A single-task level is
/// factored by the whole team one supernode at a time: columns split by
/// panel area, the diagonal block on one thread, below-diagonal rows
/// split. Left-looking updates only read descendants, which finish in
/// earlier levels or earlier in the same chain. Every piece is the
/// sequential executor's supernode body (core/supernode_body.h), so the
/// factor equals CholeskyExecutor's bit for bit at any team size.
void parallel_cholesky(const core::CholeskySets& sets,
                       const AggregateSchedule& agg, const CscMatrix& a_lower,
                       std::span<value_t> panels);

/// Plan-driven interpreter: sets + aggregate schedule come from the plan
/// (path must be ExecutionPath::ParallelSupernodal). An infrastructure
/// fault re-scatters A and re-runs the schedule serially (bit-identical);
/// returns true when that fallback was taken, recording the failure in
/// `*fallback_error` when non-null. numerical_error propagates — a pivot
/// failure is a property of the data, not of the parallel execution.
bool parallel_cholesky(const core::CholeskyPlan& plan,
                       const CscMatrix& a_lower, std::span<value_t> panels,
                       Status* fallback_error = nullptr);

/// Plan-driven blocked multi-RHS solve over factored supernodal panels:
/// packed RHS blocks sweep the plan's supernode aggregate schedule —
/// forward with slot-privatized tail updates, backward over reversed
/// levels and reversed chains (which races on nothing: each supernode
/// writes only its own block rows). Per
/// RHS column, bit-identical to the sequential panel solves; parallel
/// inside each level. `ws` is the caller's shared workspace (packed block
/// + terms); per-thread tail scratch lives in grow-only thread_local
/// workspaces. Degrades on failure: if the shared workspace cannot grow,
/// the whole batch falls back to core::blocked_panel_solve_batch
/// (bit-identical per column); a block failing mid-sweep is repacked from
/// its pristine input columns and re-swept serially. Returns true when any
/// fallback was taken, recording the first failure in `*fallback_error`
/// when non-null.
bool parallel_panel_solve_batch(const core::CholeskyPlan& plan,
                                std::span<const value_t> panels,
                                std::span<value_t> bx, index_t nrhs,
                                core::Workspace& ws,
                                Status* fallback_error = nullptr);

}  // namespace sympiler::parallel
