// Plan-sized numeric workspaces: every scratch buffer the numeric hot path
// touches — the relative-index scatter map, the gather/update panels, the
// packed RHS blocks and their tail accumulators, the privatized level-set
// update terms — sized once from plan-time dimensions and reused across
// every factor()/solve()/solve_batch().
//
// Ownership rules:
//  * executors own a Workspace for their single-threaded numeric phases
//    (mutable: solve() is logically const but borrows scratch);
//  * the level-set parallel interpreters and the multi-RHS batch driver use
//    one `thread_local` Workspace per OS thread for thread-private scratch,
//    grow-only, shared across plans — a warm thread re-runs any resident
//    plan without allocating; buffers that threads share (the packed RHS
//    block and the privatized terms) live in the caller's Workspace;
//  * nothing in a steady-state numeric call allocates — pinned by the
//    operator-new counter test (tests/test_alloc.cpp);
//  * a borrowed Workspace is not concurrency-safe: debug builds always
//    throw on concurrent entry via Workspace::Borrow; release builds
//    check only when the owner opted in with set_guard(true)
//    (SympilerOptions::guard_workspace), and are guard-free otherwise.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

#include "blas/kernels.h"
#include "solvers/supernodal.h"
#include "util/common.h"
#include "util/fault.h"

namespace sympiler::core {

/// Width of one packed multi-RHS block: solve_batch tiles its RHS columns
/// into blocks of at most this many, solved together through the panel
/// kernels. Bounded by the multi-RHS kernels' accumulator capacity.
inline constexpr index_t kRhsBlockWidth = blas::kRhsBlockMax;

/// Width of the packed RHS blocks a batch of `nrhs` columns should be
/// tiled into. `plan_block` is the plan's rhs_block (0 means "use the
/// default width"); `parallel_lanes` is the number of workers that take
/// whole blocks concurrently — pass omp_get_max_threads() when blocks run
/// in a parallel-for (narrow blocks keep every lane busy, but never below
/// 8 columns, where packing stops paying), and 1 when blocks are swept
/// sequentially (level-set batch paths, the sequential executor). The one
/// narrowing rule shared by every batch driver.
[[nodiscard]] index_t rhs_block_width(index_t plan_block, index_t nrhs,
                                      index_t parallel_lanes);

/// The numeric scratch dimensions a plan implies. Computed by the Planner
/// at plan time (pure pattern function, cached with the plan) so executors
/// size their workspaces once, before the first numeric call. The Planner
/// trims every field its chosen path never touches — a plan must not pin
/// never-read scratch.
struct WorkspaceDims {
  index_t n = 0;                ///< problem order (map / dense scratch rows)
  index_t max_panel_rows = 0;   ///< max supernode panel rows (update tiles)
  index_t max_panel_width = 0;  ///< max supernode width (update tiles)
  index_t max_tail = 0;         ///< max below-diagonal rows of any block
  index_t rhs_block = kRhsBlockWidth;  ///< packed RHS block width
  /// Privatized cross-item update slots of the level-set solves (one per
  /// deferred update term; see parallel::UpdateSlotMap). 0 on sequential
  /// paths.
  index_t update_slots = 0;
  /// Which n-sized buffers this owner actually touches — the batch
  /// driver's per-thread workspaces and the trisolve executor need
  /// neither, and must not pin 12 bytes/row of never-read scratch.
  bool need_map = true;    ///< row -> local-row scatter map
  bool need_dense = true;  ///< dense accumulation column (simplicial)

  /// Heap bytes a Workspace sized to these dims holds.
  [[nodiscard]] std::size_t bytes() const {
    const auto rows = static_cast<std::size_t>(max_panel_rows);
    const auto bw = static_cast<std::size_t>(rhs_block > 0 ? rhs_block : 1);
    return static_cast<std::size_t>(n) *
               ((need_map ? sizeof(index_t) : 0) +
                (need_dense ? sizeof(value_t) : 0)) +
           rows * static_cast<std::size_t>(max_panel_width) * sizeof(value_t) +
           static_cast<std::size_t>(n) * static_cast<std::size_t>(rhs_block) *
               sizeof(value_t) +
           (static_cast<std::size_t>(max_tail) +
            static_cast<std::size_t>(update_slots)) *
               bw * sizeof(value_t);
  }
};

/// Dims for a supernodal Cholesky plan (factor + panel solves).
[[nodiscard]] WorkspaceDims cholesky_workspace_dims(
    const solvers::SupernodalLayout& layout);

/// Reusable numeric scratch. ensure() is grow-only: after the first call at
/// a plan's dims, later calls at the same (or smaller) dims never allocate.
class Workspace {
 public:
  Workspace() = default;
  // Workspaces are identity objects: buffers are borrowed by reference and
  // the debug borrow flag must not be duplicated.
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  void ensure(const WorkspaceDims& dims) {
    if (SYMPILER_FAULT_POINT(util::FaultSite::kAlloc))
      throw resource_exhausted_error(
          "workspace: injected allocation failure (fault site alloc)");
    const auto n = static_cast<std::size_t>(dims.n);
    const auto upd = static_cast<std::size_t>(dims.max_panel_rows) *
                     static_cast<std::size_t>(dims.max_panel_width);
    const auto rhs = n * static_cast<std::size_t>(dims.rhs_block);
    const auto bw =
        static_cast<std::size_t>(dims.rhs_block > 0 ? dims.rhs_block : 1);
    const auto tail = static_cast<std::size_t>(dims.max_tail) * bw;
    const auto terms = static_cast<std::size_t>(dims.update_slots) * bw;
    if (dims.need_map && map_.size() < n) map_.resize(n);
    if (dims.need_dense && dense_.size() < n) dense_.resize(n);
    if (update_.size() < upd) update_.resize(upd);
    if (rhs_.size() < rhs) rhs_.resize(rhs);
    if (tail_.size() < tail) tail_.resize(tail);
    if (terms_.size() < terms) terms_.resize(terms);
  }

  /// Row -> local-row scatter map (n entries).
  [[nodiscard]] std::span<index_t> map() { return map_; }
  /// Dense length-n value scratch (simplicial accumulation column).
  [[nodiscard]] std::span<value_t> dense() { return dense_; }
  /// Supernodal update tile (max_panel_rows x max_panel_width).
  [[nodiscard]] std::span<value_t> update() { return update_; }
  /// Packed RHS block (n rows x rhs_block, RHS-major).
  [[nodiscard]] value_t* rhs_block() { return rhs_.data(); }
  /// Tail gather/accumulate block (max_tail rows x rhs_block, RHS-major).
  /// Also serves as the single-RHS panel-solve tail scratch.
  [[nodiscard]] std::span<value_t> tail() { return tail_; }
  /// Privatized level-set update terms (update_slots rows x rhs_block,
  /// RHS-major; x 1 when rhs_block is 0). Shared across the level-set
  /// threads — slots are disjoint by construction.
  [[nodiscard]] std::span<value_t> terms() { return terms_; }

  /// Opt the borrow guard into release builds (debug builds always guard).
  /// Facades wire this from SympilerOptions::guard_workspace.
  void set_guard(bool on) { guard_opt_in_ = on; }

  /// The library's build decides "debug" (library_debug_build()), not the
  /// including translation unit's NDEBUG.
  [[nodiscard]] bool guard_enabled() const {
    return guard_opt_in_ || library_debug_build();
  }

  /// Reentrancy guard over a borrowed workspace. solve() and friends are
  /// logically const but borrow the owner's scratch, so one instance must
  /// never be entered from two threads at once (the PR 3 breaking note).
  /// Debug builds turn that footnote into a loud failure unconditionally;
  /// release builds check when the owner opted in via set_guard(true) and
  /// throw resource_exhausted_error (kResourceExhausted) on a concurrent
  /// entry instead of silently corrupting scratch. The guard releases on
  /// unwind too, so a failed borrow-holding call leaves the workspace
  /// re-borrowable (factor-after-failure).
  class Borrow {
   public:
    explicit Borrow(Workspace& ws) {
      if (!ws.guard_enabled()) return;
      if (ws.borrowed_.exchange(true, std::memory_order_acquire))
        throw resource_exhausted_error(
            "workspace: concurrent borrow — solve()/factorize() are not "
            "concurrency-safe on one instance; use solve_batch or "
            "per-thread owners");
      ws_ = &ws;
    }
    ~Borrow() {
      if (ws_ != nullptr) ws_->borrowed_.store(false, std::memory_order_release);
    }
    Borrow(const Borrow&) = delete;
    Borrow& operator=(const Borrow&) = delete;

   private:
    Workspace* ws_ = nullptr;
  };

 private:
  std::vector<index_t> map_;
  std::vector<value_t> dense_;
  std::vector<value_t> update_;
  std::vector<value_t> rhs_;
  std::vector<value_t> tail_;
  std::vector<value_t> terms_;
  std::atomic<bool> borrowed_{false};
  bool guard_opt_in_ = false;
};

/// Blocked multi-RHS solve over factored supernodal panels: `bx` holds nrhs
/// column-major dense RHS of length dims.n, overwritten by the solutions.
/// RHS columns are tiled into packed blocks of dims.rhs_block and pushed
/// through the multi-RHS panel kernels; per column the arithmetic is
/// bit-identical to panel_forward_solve + panel_backward_solve. Blocks run
/// in parallel under OpenMP with per-thread workspaces.
void blocked_panel_solve_batch(const solvers::SupernodalLayout& layout,
                               std::span<const value_t> panels,
                               const WorkspaceDims& dims,
                               std::span<value_t> bx, index_t nrhs);

}  // namespace sympiler::core
