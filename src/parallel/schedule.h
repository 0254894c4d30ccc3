// Schedules and the privatized update-slot map — the pattern-pure
// symbolic products of the parallel executors, split out of levelset.h so
// the planning layer (core/inspector.h) can build them inside its parallel
// assembly region without an include cycle (levelset.h's executors consume
// core::CholeskySets and therefore include inspector.h).
//
// A plan carries, verifies, persists and executes one schedule format: the
// AggregateSchedule. The flat LevelSchedule is only the coarsener's input
// (and the source of the planner's level-width evidence); it never reaches
// a plan's executors, its file or its verifier.
//
// See levelset.h for the execution model these products drive and the
// determinism argument for the slot map.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/supernodes.h"
#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::solvers {
struct SupernodalLayout;  // solvers/supernodal.h
}  // namespace sympiler::solvers

namespace sympiler::parallel {

/// Level schedule: levels partition [0, count) items such that an item's
/// dependencies all live in strictly earlier levels. Transient: built by
/// the planner and consumed by coarsen_schedule_*, never executed.
struct LevelSchedule {
  std::vector<index_t> level_ptr;  ///< size nlevels + 1
  std::vector<index_t> items;      ///< permutation of items, bucketed
  [[nodiscard]] index_t levels() const {
    return level_ptr.empty()
               ? 0
               : static_cast<index_t>(level_ptr.size()) - 1;
  }
  [[nodiscard]] bool empty() const { return items.empty(); }
  /// Mean items per level; 0 for an empty schedule.
  [[nodiscard]] double avg_level_width() const {
    const index_t n = levels();
    return n > 0 ? static_cast<double>(items.size()) / static_cast<double>(n)
                 : 0.0;
  }
  /// Heap bytes of the schedule arrays (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return (level_ptr.size() + items.size()) * sizeof(index_t);
  }
};

/// Dependence-coarsened (aggregate) schedule: the flat level schedule
/// rewritten into super-tasks mined from the actual dependence DAG. The
/// only schedule a plan carries; with both rewrites off
/// (CoarsenOptions{false, false}) it is the identity aggregate — one
/// singleton chain per item at its flat level.
///
/// Two task kinds:
///  - **chain** (`bundle[t] == 0`): a run of items, one per consecutive
///    flat level, where every dependence of a member is either the run
///    member one flat level below it or lives at a flat level before the
///    run started. The run executes sequentially on one thread — the
///    barrier cascade of those flat levels collapses into ordinary
///    program order. A singleton item is a length-1 chain.
///  - **bundle** (`bundle[t] == 1`): 2..kBundleMax mutually independent
///    items of identical sparsity shape at the same aggregate level,
///    executed lock-step by the SIMD bundle kernels (blas/bundle.h).
///
/// Aggregate level of a task = the flat level of its first item; tasks
/// within an aggregate level are mutually independent (a dependence into
/// a chain implies a strictly earlier aggregate level — see
/// docs/architecture.md, "Schedule coarsening"), so levels keep the
/// barrier-per-level execution model. Backward sweeps reverse both the
/// level order and the item order inside each task.
/// Pattern-pure — built by the Planner, cached with the plan; bit-identity
/// is untouched because the UpdateSlotMap fold order never depends on the
/// execution schedule.
struct AggregateSchedule {
  std::vector<index_t> level_ptr;   ///< size nlevels + 1, into tasks
  std::vector<index_t> task_ptr;    ///< size ntasks + 1, into items
  std::vector<index_t> items;       ///< permutation of items, task-major
  std::vector<std::uint8_t> bundle; ///< per task: 1 = lock-step bundle

  [[nodiscard]] index_t levels() const {
    return level_ptr.empty()
               ? 0
               : static_cast<index_t>(level_ptr.size()) - 1;
  }
  [[nodiscard]] index_t tasks() const {
    return task_ptr.empty() ? 0 : static_cast<index_t>(task_ptr.size()) - 1;
  }
  [[nodiscard]] bool empty() const { return items.empty(); }
  [[nodiscard]] index_t bundles() const {
    index_t c = 0;
    for (const std::uint8_t b : bundle) c += b;
    return c;
  }
  /// Heap bytes of the schedule arrays (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return (level_ptr.size() + task_ptr.size() + items.size()) *
               sizeof(index_t) +
           bundle.size() * sizeof(std::uint8_t);
  }
};

/// Which coarsening rewrites to apply (bench ablations run them
/// separately; the Planner applies both, or neither for the identity
/// aggregate when PlannerConfig::coarsen_schedule is off).
struct CoarsenOptions {
  bool chains = true;   ///< fuse dependence runs into sequential chains
  bool bundles = true;  ///< group same-shape independent rows lock-step
};

/// Widest SIMD bundle the coarsener emits and the bundle kernels accept.
inline constexpr index_t kBundleMax = 8;
/// Narrowest group worth bundling (below this, lanes stay chain items).
inline constexpr index_t kBundleMin = 4;

/// Privatized cross-item update map: the symbolic product that makes the
/// level-set solves deterministic. Every off-diagonal update a source item
/// (column, or supernode tail row) will produce gets a dedicated slot in a
/// terms buffer; slots are grouped by target row and ordered by ascending
/// source within each row, so the consumer's fold replays the serial
/// update order exactly. Pattern-pure — built by the Planner, cached with
/// the plan.
struct UpdateSlotMap {
  /// Compact source position -> slot id. Positions that can never produce
  /// a cross-item update are squeezed out (they held -1 before PR 7): for
  /// the column map the array is indexed by *off-diagonal* CSC position —
  /// position p of column j maps to p - j - 1 (the j + 1 diagonals at or
  /// before p are dropped); for the supernodal map it is indexed by
  /// *below-diagonal* srows position — position srow_ptr[s] + u (u >=
  /// width(s)) maps to srow_ptr[s] + u - sn.start[s] - width(s) (the
  /// block rows of supernodes 0..s sum to sn.start[s] + width(s)).
  std::vector<index_t> slot;
  /// Incoming slots of row i are [row_ptr[i], row_ptr[i+1]), in ascending
  /// source order. Size n + 1.
  std::vector<index_t> row_ptr;

  [[nodiscard]] index_t slots() const {
    return row_ptr.empty() ? 0 : row_ptr.back();
  }
  [[nodiscard]] bool empty() const { return row_ptr.empty(); }
  /// Heap bytes of the map arrays (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return (slot.size() + row_ptr.size()) * sizeof(index_t);
  }
};

/// Slot map of the column update pattern of L: one slot per strictly-lower
/// nonzero. `order` is the column iteration order of the serial solve the
/// parallel one must replay — the plan's reach sequence for the pruned
/// executor, or empty for ascending column order (trisolve_naive). Rows
/// fold their updaters in that order.
[[nodiscard]] UpdateSlotMap update_slots_columns(
    const CscMatrix& l, std::span<const index_t> order = {});

/// Slot map of the supernodal forward-solve update pattern: one slot per
/// below-diagonal panel row, target rows fold their contributing
/// supernodes in ascending supernode order.
[[nodiscard]] UpdateSlotMap update_slots_supernodes(
    const solvers::SupernodalLayout& layout);

/// Process-wide count of level schedules constructed so far. Regression
/// instrumentation: a warm plan-cache hit must do zero schedule work, which
/// tests assert by taking the counter's delta around a warm factor().
[[nodiscard]] std::uint64_t level_schedule_builds();

/// Levels of the column dependence graph DG_L (column j depends on every
/// column k with L(j,k) != 0).
[[nodiscard]] LevelSchedule level_schedule_columns(const CscMatrix& l);

/// Levels of the supernodal elimination forest.
[[nodiscard]] LevelSchedule level_schedule_supernodes(
    const SupernodePartition& sn, std::span<const index_t> parent);

/// Coarsen a flat column level schedule of DG_L into chains + SIMD
/// bundles (see AggregateSchedule). Tasks within each aggregate level are
/// ordered by the postorder rank of their head column in the solve etree
/// (parent(j) = first off-diagonal row of column j), so runs and bundles
/// that execute together are contiguous in memory; bundles group
/// postorder-adjacent columns of equal (incoming-term, update) counts.
/// Deterministic pure pattern function — naive and fast plans share it.
[[nodiscard]] AggregateSchedule coarsen_schedule_columns(
    const CscMatrix& l, const LevelSchedule& flat,
    const CoarsenOptions& opt = {});

/// Coarsen the supernodal level schedule: chain fusion only (supernode
/// shapes are too irregular to lock-step), runs mined from the update
/// lists' dependence structure, tasks postordered by the supernodal
/// etree. Items are supernode ids; `updates` is the plan's static update
/// schedule (solvers::UpdateLists flattened as ptr/refs source ids).
[[nodiscard]] AggregateSchedule coarsen_schedule_supernodes(
    const SupernodePartition& sn, std::span<const index_t> parent,
    std::span<const index_t> dep_ptr, std::span<const index_t> dep_src,
    const LevelSchedule& flat, const CoarsenOptions& opt = {});

}  // namespace sympiler::parallel
