#include "core/inspector.h"

#include <algorithm>
#include <exception>

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

#include "graph/etree.h"
#include "graph/reach.h"
#include "solvers/trisolve.h"
#include "sparse/ops.h"
#include "util/timer.h"

namespace sympiler::core {

namespace {

// The paper gates VS-Block on "the average size of the participating
// supernodes" with a hand-tuned threshold of 160 on its SuiteSparse
// suite. Our recalibrated form of the same heuristic weights the average
// panel rows of participating (width >= 2) supernodes by the fraction of
// columns they cover — a matrix whose only wide supernode is the trailing
// dense block should not trigger blocking. The default threshold in
// SympilerOptions is hand-tuned on the synthetic suite exactly like the
// paper tunes theirs; bench/ablation_thresholds sweeps it.
double participating_avg_rows(const SupernodePartition& sn,
                              std::span<const index_t> colcount) {
  double total_rows = 0.0;
  double covered_cols = 0.0;
  index_t participating = 0;
  for (index_t s = 0; s < sn.count(); ++s) {
    if (sn.width(s) < 2) continue;
    total_rows += static_cast<double>(colcount[sn.start[s]]);  // panel rows
    covered_cols += sn.width(s);
    ++participating;
  }
  if (participating == 0 || sn.start.back() == 0) return 0.0;
  const double avg_rows = total_rows / participating;
  const double coverage = covered_cols / static_cast<double>(sn.start.back());
  return avg_rows * coverage;
}

double participating_avg_width(const SupernodePartition& sn) {
  double covered_cols = 0.0;
  index_t participating = 0;
  for (index_t s = 0; s < sn.count(); ++s) {
    if (sn.width(s) < 2) continue;
    covered_cols += sn.width(s);
    ++participating;
  }
  return participating == 0 ? 0.0 : covered_cols / participating;
}

}  // namespace

TriSolveSets inspect_trisolve(const CscMatrix& l,
                              std::span<const index_t> beta,
                              const SympilerOptions& opt) {
  SYMPILER_CHECK(l.rows() == l.cols(), "inspect_trisolve: L not square");
  TriSolveSets sets;
  const index_t n = l.cols();

  // The three inspection products are independent pattern reads of well
  // under a millisecond each on large factors, so they run on the calling
  // thread: waking an idle OpenMP team for them costs more than they do.
  // VI-Prune inspection: DFS over DG_L (Table 1 row 1).
  sets.reach = reach(l, beta);
  // Column counts (peel decisions and thresholds).
  sets.colcount.resize(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j)
    sets.colcount[j] = l.col_end(j) - l.col_begin(j);
  // VS-Block inspection: node equivalence on DG_L (Table 1 row 2).
  SupernodeOptions sn_opt;
  sn_opt.max_width = opt.max_supernode_width;
  sets.blocks = supernodes_node_equivalence(l, sn_opt);
  sets.avg_supernode_size =
      participating_avg_rows(sets.blocks, sets.colcount);
  sets.vs_block_profitable =
      opt.vs_block && sets.avg_supernode_size >= opt.vsblock_min_avg_size &&
      participating_avg_width(sets.blocks) >= opt.vsblock_min_avg_width;

  // Supernode-level prune-set: reached columns of a supernode form a
  // suffix, so one (supernode, first column) pair per touched supernode.
  std::vector<index_t> first_col(static_cast<std::size_t>(sets.blocks.count()),
                                 -1);
  for (const index_t j : sets.reach) {
    const index_t s = sets.blocks.col_to_super[j];
    if (first_col[s] == -1 || j < first_col[s]) first_col[s] = j;
  }
  for (index_t s = 0; s < sets.blocks.count(); ++s) {
    if (first_col[s] != -1) {
      sets.sn_reach.push_back(s);
      sets.sn_first_col.push_back(first_col[s]);
    }
  }

  sets.flops = solvers::trisolve_flops(l, sets.reach);
  return sets;
}

TriSolveSets inspect_trisolve_dense_rhs(const CscMatrix& l,
                                        std::span<const value_t> b,
                                        const SympilerOptions& opt) {
  std::vector<index_t> beta;
  for (index_t i = 0; i < static_cast<index_t>(b.size()); ++i)
    if (b[i] != 0.0) beta.push_back(i);
  return inspect_trisolve(l, beta, opt);
}

CscMatrix CholeskySets::factor_pattern() const {
  if (layout.n == 0) return sym.l_pattern;
  return symbolic_cholesky(a_pattern).l_pattern;
}

CholeskySets inspect_cholesky_planned(const CscMatrix& a_lower,
                                      const SympilerOptions& opt,
                                      const CholeskyPlanRequest& req,
                                      CholeskyPlanProducts& products,
                                      PlanPhaseTimes* phases) {
  PlanPhaseTimes local_phases;
  PlanPhaseTimes& ph = phases != nullptr ? *phases : local_phases;
  CholeskySets sets;
  const index_t n = a_lower.cols();
  SYMPILER_CHECK(a_lower.rows() == n, "inspect_cholesky: not square");
  SYMPILER_CHECK(a_lower.is_lower_triangular(),
                 "inspect_cholesky: input must be the lower triangle");

  // --- symbolic factorization: etree, column counts -----------------------
  // Both are planning-time locals: they derive the block-set, the pattern
  // and the schedule, and no executor reads them.
  Timer t_tr;
  const CscMatrix upper = transpose(a_lower);  // the one shared transpose
  ph.transpose = t_tr.seconds();
  Timer t_et;
  const std::vector<index_t> parent = elimination_tree_from_upper(upper);
  ph.etree = t_et.seconds();
  Timer t_cc;
  const std::vector<index_t> colcount =
      cholesky_counts(a_lower, parent, postorder(parent));
  ph.counts = t_cc.seconds();

  // --- block-set + profitability (cheap: colcount + etree reads) ----------
  // Deciding the path here, before the pattern fill, is what lets the
  // pipeline skip products the path never reads. The VS-Block gate reads
  // the fundamental partition, so amalgamation never moves a pattern
  // between the simplicial and supernodal paths; a supernodal plan then
  // executes (and its parallel gates read) the amalgamated partition.
  SupernodeOptions sn_opt;
  sn_opt.max_width = opt.max_supernode_width;
  SupernodePartition blocks = supernodes_cholesky(parent, colcount, sn_opt);
  products.fundamental_supernodes = blocks.count();
  sets.avg_supernode_size = participating_avg_rows(blocks, colcount);
  sets.vs_block_profitable =
      opt.vs_block && sets.avg_supernode_size >= opt.vsblock_min_avg_size &&
      participating_avg_width(blocks) >= opt.vsblock_min_avg_width;
  const bool supernodal = sets.vs_block_profitable;
  if (supernodal)
    blocks = amalgamate_supernodes(blocks, parent, colcount, sn_opt);

  // --- pattern of L: one fused sweep into exact-presized arrays -----------
  // No |L|-sized zero value array: every executor owns its factor values.
  std::vector<index_t> row_offdiag;  // rowpat histogram, free from the sweep
  Timer t_pat;
  sets.sym.l_pattern =
      cholesky_fill_pattern(upper, parent, colcount, /*with_values=*/false,
                            supernodal ? nullptr : &row_offdiag);
  sets.sym.fill_nnz = sets.sym.l_pattern.colptr[n];
  for (index_t j = 0; j < n; ++j) {
    const double c = colcount[j];
    sets.sym.flops += c * c;
  }
  ph.pattern = t_pat.seconds();

  // --- assembly: the chosen path's products -------------------------------
  Timer t_asm;
  if (!supernodal) {
    // Simplicial prune-sets: the row pattern of L row-by-row — a transpose
    // walk of the pattern (row pattern of i = columns j < i with
    // L(i,j) != 0, ascending), counted by the fused sweep's histogram.
    sets.rowpat_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
    for (index_t i = 0; i < n; ++i)
      sets.rowpat_ptr[i + 1] = sets.rowpat_ptr[i] + row_offdiag[i];
    sets.rowpat.resize(static_cast<std::size_t>(sets.rowpat_ptr[n]));
    std::vector<index_t> next(sets.rowpat_ptr.begin(),
                              sets.rowpat_ptr.end() - 1);
    const CscMatrix& lp = sets.sym.l_pattern;
    for (index_t j = 0; j < n; ++j)
      for (index_t p = lp.col_begin(j) + 1; p < lp.col_end(j); ++p)
        sets.rowpat[next[lp.rowind[p]]++] = j;
    ph.assemble = t_asm.seconds();
    return sets;
  }

  // Supernodal: the plan keeps A's pattern in place of L's, which only
  // the layout reads (below) and which is dropped after the assembly.
  sets.a_pattern = CscMatrix(n, n);
  sets.a_pattern.colptr = a_lower.colptr;
  sets.a_pattern.rowind = a_lower.rowind;
  // The layout takes over the partition, then the update lists and the
  // schedule -> slot map, which read only the layout, run as sibling
  // tasks. Each is a deterministic pattern function, so the assembly is
  // bit-reproducible regardless of which thread builds what.
  const auto build_layout = [&] {
    sets.layout = solvers::SupernodalLayout::build(sets.sym, std::move(blocks));
  };
  const auto build_updates = [&] {
    sets.updates = solvers::compute_update_lists(sets.layout);
  };
  const auto build_schedule = [&] {
    // Gates mirror the historical planner: enough supernodes to schedule,
    // then wide enough average levels to commit to the parallel path.
    if (!req.build_schedule ||
        sets.layout.nsuper() < req.parallel_min_supernodes)
      return;
    Timer t_sched;
    products.schedule =
        parallel::level_schedule_supernodes(sets.layout.sn, parent);
    ph.schedule = t_sched.seconds();
    products.scheduled = true;
    if (products.schedule.avg_level_width() >=
        req.parallel_min_avg_level_width) {
      Timer t_slot;
      products.solve_update_map =
          parallel::update_slots_supernodes(sets.layout);
      ph.slotmap = t_slot.seconds();
      products.committed = true;
    }
  };
#ifdef SYMPILER_HAS_OPENMP
  std::exception_ptr errors[2] = {nullptr, nullptr};
#pragma omp parallel
#pragma omp single
  {
    try {
      build_layout();  // critical path: updates + slot map read it
#pragma omp task shared(sets, errors)
      {
        try {
          build_updates();
        } catch (...) {
          errors[0] = std::current_exception();
        }
      }
      build_schedule();
    } catch (...) {
      errors[1] = std::current_exception();
    }
  }  // implicit barrier: all tasks complete
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
#else
  build_layout();
  build_updates();
  build_schedule();
#endif
  sets.sym.l_pattern = CscMatrix();
  if (products.committed) {
    // Coarsening reads the update lists, which may still be under
    // construction while build_schedule runs as a task sibling — so it
    // happens here, after the assembly barrier.
    Timer t_coarsen;
    std::vector<index_t> dep_src(sets.updates.refs.size());
    for (std::size_t u = 0; u < sets.updates.refs.size(); ++u)
      dep_src[u] = sets.updates.refs[u].d;
    products.agg = parallel::coarsen_schedule_supernodes(
        sets.layout.sn, parent, sets.updates.ptr, dep_src, products.schedule,
        parallel::CoarsenOptions{req.coarsen, req.coarsen});
    ph.schedule += t_coarsen.seconds();
  }
  ph.assemble = t_asm.seconds();
  return sets;
}

}  // namespace sympiler::core
