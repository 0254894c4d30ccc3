// Compile-time symbolic inspectors (paper section 2.2, Table 1).
//
// For each numerical method the inspector builds an inspection graph from
// the sparsity pattern, traverses it with a method-specific strategy, and
// produces inspection sets that drive the inspector-guided transformations:
//
//   method     graph          strategy           sets
//   --------   ------------   ----------------   -----------------------------
//   trisolve   DG_L + SP(b)   DFS                prune-set (reach-set)
//   trisolve   DG_L           node equivalence   block-set (supernodes)
//   cholesky   etree + SP(A)  up-traversal       prune-sets (row patterns)
//   cholesky   etree+colcnt   up-traversal       block-set (supernodes)
//
// Everything here runs once per sparsity pattern ("compile time"). The
// sets have two symbolic-work-free consumers: the interpreting executors
// read them from memory, and the PlanCompiler (plan_compiler.h) bakes
// them — as part of a whole cached ExecutionPlan — into the plan's
// compiled kernel. The cold pipeline itself is near-linear: one shared
// transpose(A) feeds the etree, the GNP column counts, and the fused
// pattern sweep (inspect_cholesky_planned).
#pragma once

#include <span>
#include <vector>

#include "core/options.h"
#include "graph/supernodes.h"
#include "graph/symbolic.h"
#include "parallel/schedule.h"
#include "solvers/supernodal.h"
#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::core {

/// Wall seconds of each cold-planning phase, recorded in PlanEvidence and
/// emitted by bench/cache_reuse as the per-phase cold breakdown. Phases
/// built inside the parallel assembly region (updates, rowpat) are folded
/// into `assemble`, which is the region's wall time — under OpenMP the
/// named phases can overlap it, so the parts need not sum to
/// build_seconds.
struct PlanPhaseTimes {
  double transpose = 0.0;  ///< the one shared transpose(A)
  double etree = 0.0;      ///< elimination tree (Liu, from the upper view)
  double counts = 0.0;     ///< postorder + GNP skeleton column counts
  double pattern = 0.0;    ///< fused single-sweep pattern fill
  double assemble = 0.0;   ///< layout/updates/rowpat region wall time
  double schedule = 0.0;   ///< supernode level schedule (parallel gate)
  double slotmap = 0.0;    ///< privatized update-slot map (parallel gate)
  double verify = 0.0;     ///< static plan verification (verify/verify.h)
};

/// Inspection sets for sparse triangular solve L x = b.
struct TriSolveSets {
  /// Column-level prune-set: Reach_L(beta) in topological order.
  std::vector<index_t> reach;
  /// Block-set: node-equivalence supernodes of DG_L.
  SupernodePartition blocks;
  /// Supernode-level prune-set (ascending supernode ids; ascending is
  /// topological because DG_L edges always increase the column index).
  std::vector<index_t> sn_reach;
  /// First reached column within each sn_reach entry (reached columns of a
  /// supernode always form a suffix of its columns, because supernode
  /// diagonal blocks are dense).
  std::vector<index_t> sn_first_col;
  /// Per-column nnz of L (drives the peel decisions, paper Figure 1e).
  std::vector<index_t> colcount;
  /// Average participating supernode size (rows) — VS-Block threshold input.
  double avg_supernode_size = 0.0;
  /// Whether VS-Block passes its profitability threshold.
  bool vs_block_profitable = false;
  /// Useful flops of the pruned solve.
  double flops = 0.0;

  /// Heap bytes of the inspection sets (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return (reach.size() + sn_reach.size() + sn_first_col.size() +
            colcount.size()) *
               sizeof(index_t) +
           blocks.bytes();
  }
};

/// Run the triangular-solve inspector on pattern of L and RHS pattern
/// beta. The block-set always comes from node equivalence on L itself: a
/// Cholesky plan's amalgamated block-set describes its panels, not the
/// exact pattern of L, so it would break the blocked solve's
/// dense-diagonal-block assumption.
[[nodiscard]] TriSolveSets inspect_trisolve(const CscMatrix& l,
                                            std::span<const index_t> beta,
                                            const SympilerOptions& opt = {});

/// Convenience: beta from a dense b's nonzeros.
[[nodiscard]] TriSolveSets inspect_trisolve_dense_rhs(
    const CscMatrix& l, std::span<const value_t> b,
    const SympilerOptions& opt = {});

/// Inspection sets for sparse Cholesky A = L L^T.
struct CholeskySets {
  SymbolicFactor sym;                 ///< etree, colcounts, pattern of L
  /// Block-set: fundamental supernodes, amalgamated (graph/supernodes.h)
  /// when VS-Block is profitable — the partition the layout executes.
  SupernodePartition blocks;
  solvers::SupernodalLayout layout;   ///< panel layout of the factor
  solvers::UpdateLists updates;       ///< static update schedule (decoupled)
  /// Simplicial prune-sets: row pattern of every row of L (CSR-style),
  /// excluding diagonals — the update-loop iteration spaces of Figure 4.
  std::vector<index_t> rowpat_ptr;    ///< size n+1
  std::vector<index_t> rowpat;
  double avg_supernode_size = 0.0;    ///< rows, over width>=2 supernodes
  double avg_colcount = 0.0;          ///< BLAS-switch threshold input
  bool vs_block_profitable = false;
  [[nodiscard]] double flops() const { return sym.flops; }

  /// Heap bytes of the inspection sets (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return sym.bytes() + blocks.bytes() + layout.bytes() + updates.bytes() +
           (rowpat_ptr.size() + rowpat.size()) * sizeof(index_t);
  }
};

/// Run the Cholesky inspector on the pattern of A (lower triangle).
/// Builds every inspection set (pattern with values, rowpat, layout,
/// updates) — the ungated contract direct callers (executor convenience
/// constructors, tests) rely on. The Planner goes through
/// inspect_cholesky_planned instead.
[[nodiscard]] CholeskySets inspect_cholesky(const CscMatrix& a_lower,
                                            const SympilerOptions& opt = {});

/// What plan_cholesky asks the inspector for beyond the plain sets.
struct CholeskyPlanRequest {
  /// Build only the sets the profitability-chosen path will consume:
  /// simplicial plans get rowpat and skip layout/updates; supernodal plans
  /// get layout/updates and skip rowpat. Neither gets the |L|-sized zero
  /// value array, which no executor reads (each owns its factor values).
  /// The gate decision (colcount + block-set) is made before the pattern
  /// fill, so skipped products cost nothing.
  bool gate_products = false;
  /// Build the supernode level schedule — and, if the width gate passes,
  /// the forward-solve slot map (inside the same assembly region) and the
  /// aggregate schedule.
  bool build_schedule = false;
  index_t parallel_min_supernodes = 0;
  double parallel_min_avg_level_width = 0.0;
  /// Coarsen a committed schedule (chain fusion) into its aggregate form;
  /// off yields the identity aggregate — see parallel/schedule.h.
  bool coarsen = false;
  /// Use the retained naive reference pipeline: symbolic_cholesky_naive
  /// plus strictly serial assembly. The equivalence tests pin the fast
  /// path bit-identical to this.
  bool naive = false;
};

/// Products of a planned inspection beyond the sets. The schedule fields
/// are meaningful only when the request set build_schedule.
struct CholeskyPlanProducts {
  /// Size of the fundamental partition the VS-Block gate read; a
  /// supernodal plan's sets.blocks is the amalgamated one.
  index_t fundamental_supernodes = 0;
  bool scheduled = false;  ///< supernode-count gate passed; schedule built
  bool committed = false;  ///< level-width gate passed; slot map built
  /// Flat supernode levels: the gates' evidence and the coarsener's input.
  parallel::LevelSchedule schedule;
  parallel::UpdateSlotMap solve_update_map;
  /// Aggregate rewrite of `schedule` — coarsened or identity, per the
  /// request (empty unless committed).
  parallel::AggregateSchedule agg;
};

/// Planner entry point: the near-linear cold pipeline. One shared
/// transpose(A) threads through the etree, the GNP column counts, and the
/// fused pattern sweep; the independent assembly products (rowpat,
/// layout -> updates, schedule -> slot map) run as OpenMP tasks over the
/// shared symbolic factor. Product content is identical to the serial
/// naive pipeline on every build — only wall time differs.
[[nodiscard]] CholeskySets inspect_cholesky_planned(
    const CscMatrix& a_lower, const SympilerOptions& opt,
    const CholeskyPlanRequest& req, CholeskyPlanProducts& products,
    PlanPhaseTimes* phases = nullptr);

}  // namespace sympiler::core
