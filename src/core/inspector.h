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
// compiled kernel. The Cholesky pipeline is near-linear: one shared
// transpose(A) feeds the etree, the GNP column counts, and the fused
// pattern sweep (inspect_cholesky_planned). The etree, the counts and the
// block-set only derive the sets the numeric code reads, so they stay
// local to the inspector, and so does L's pattern on the supernodal paths.
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
/// emitted by bench/cache_reuse as the per-phase cold breakdown. The
/// assembly products (rowpat, or layout and updates) are folded into
/// `assemble`, the assembly's wall time; `schedule` and `slotmap` are
/// timed inside it, and under OpenMP they overlap the update lists, so
/// the parts need not sum to build_seconds.
struct PlanPhaseTimes {
  double transpose = 0.0;  ///< the one shared transpose(A)
  double etree = 0.0;      ///< elimination tree (Liu, from the upper view)
  double counts = 0.0;     ///< postorder + GNP skeleton column counts
  double pattern = 0.0;    ///< fused single-sweep pattern fill
  double assemble = 0.0;   ///< rowpat or layout/updates assembly wall time
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

/// Inspection sets for sparse Cholesky A = L L^T: only what an executor,
/// a solve or factor_csc() reads. The simplicial path carries the row
/// patterns and L's pattern, which its factor and solves walk. The
/// supernodal paths carry the layout, the update lists and the
/// lower-triangle pattern of A they were planned from: no factor or solve
/// there reads L's rows, so factor_csc() re-derives them from A's pattern
/// (one symbolic_cholesky pass per call). Neither pattern has values.
struct CholeskySets {
  /// nnz(L) and flops on every path; L's pattern on the simplicial path
  /// only (empty, 0 x 0, on the supernodal paths).
  FactorPattern sym;
  /// Supernodal paths: the lower triangle of A's pattern (empty, 0 x 0, on
  /// the simplicial path). The verifier checks the scatter of A against it.
  CscMatrix a_pattern;
  /// Supernodal paths: the panel layout of the factor, whose partition is
  /// the block-set (fundamental supernodes, amalgamated as in
  /// graph/supernodes.h), and the static update schedule (decoupled).
  solvers::SupernodalLayout layout;
  solvers::UpdateLists updates;
  /// Simplicial prune-sets: row pattern of every row of L (CSR-style),
  /// excluding diagonals — the update-loop iteration spaces of Figure 4.
  std::vector<index_t> rowpat_ptr;    ///< size n+1
  std::vector<index_t> rowpat;
  double avg_supernode_size = 0.0;    ///< rows, over width>=2 supernodes
  bool vs_block_profitable = false;
  [[nodiscard]] double flops() const { return sym.flops; }

  /// Order of the factored matrix: the layout's on the supernodal paths
  /// (the order their executors index), L's pattern's on the simplicial
  /// path. The path is told by whether a layout is present; the verifier's
  /// structure pass rejects a plan that carries the other path's sets.
  [[nodiscard]] index_t n() const {
    return layout.n != 0 ? layout.n : sym.l_pattern.cols();
  }

  /// L's exact pattern: a copy of the stored one on the simplicial path,
  /// symbolic_cholesky(a_pattern) on the supernodal paths (whose zero
  /// value array comes along), told apart as n() does. O(|A| alpha(n) +
  /// |L|) there, one transpose.
  [[nodiscard]] CscMatrix factor_pattern() const;

  /// Heap bytes of the inspection sets (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return sym.l_pattern.bytes() + a_pattern.bytes() + layout.bytes() +
           updates.bytes() +
           (rowpat_ptr.size() + rowpat.size()) * sizeof(index_t);
  }
};

/// What plan_cholesky asks the inspector for beyond the sets.
struct CholeskyPlanRequest {
  /// Build the supernode level schedule — and, if the width gate passes,
  /// the forward-solve slot map (inside the same assembly region) and the
  /// aggregate schedule.
  bool build_schedule = false;
  index_t parallel_min_supernodes = 0;
  double parallel_min_avg_level_width = 0.0;
  /// Coarsen a committed schedule (chain fusion) into its aggregate form;
  /// off yields the identity aggregate — see parallel/schedule.h.
  bool coarsen = false;
};

/// Products of a planned inspection beyond the sets. The schedule fields
/// are meaningful only when the request set build_schedule.
struct CholeskyPlanProducts {
  /// Size of the fundamental partition the VS-Block gate read; a
  /// supernodal plan's layout executes its amalgamation.
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

/// The Cholesky inspector, run by the Planner: the near-linear cold
/// pipeline. One shared transpose(A) threads through the etree, the GNP
/// column counts, and the fused pattern sweep. The VS-Block decision is
/// made from the counts and the block-set before the pattern fill, so
/// only the chosen path's products are built: the row patterns of a
/// simplicial plan, or the layout of a supernodal one, whose update lists
/// and schedule -> slot map then run as OpenMP tasks. Every product is a
/// deterministic pattern function: the same on every build and team size.
[[nodiscard]] CholeskySets inspect_cholesky_planned(
    const CscMatrix& a_lower, const SympilerOptions& opt,
    const CholeskyPlanRequest& req, CholeskyPlanProducts& products,
    PlanPhaseTimes* phases = nullptr);

}  // namespace sympiler::core
