#include "parallel/levelset.h"

#include <algorithm>
#include <atomic>
#include <string>

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

#include "blas/bundle.h"
#include "blas/kernels.h"
#include "core/execution_plan.h"
#include "core/workspace.h"
#include "solvers/supernodal.h"
#include "util/abort_guard.h"
#include "util/fault.h"

namespace sympiler::parallel {

namespace {

std::atomic<std::uint64_t> g_schedule_builds{0};

#ifdef SYMPILER_HAS_OPENMP
/// Levels narrower than this many items per team thread run serially
/// under `omp single` instead of an `omp for`: spreading a handful of
/// items across the team costs more in worksharing setup and cache-line
/// handoff than the items themselves, and deep schedules (banded factors)
/// are almost entirely such levels. The `single`'s implicit barrier
/// publishes the level exactly like the for's would, so determinism and
/// the memory model are unchanged.
constexpr index_t kSerialLevelFactor = 4;

index_t serial_level_cutoff() {
  return kSerialLevelFactor * static_cast<index_t>(omp_get_num_threads());
}
#endif

/// Run one level [lo, hi) of a level-set sweep inside an active parallel
/// region: tiny levels run serially under `single`, wide levels under a
/// static `omp for`. Must be called by every thread of the team (both
/// branches are worksharing constructs). The sequential build compiles to
/// a plain loop.
template <typename Body>
inline void run_level(index_t lo, index_t hi, Body&& body) {
#ifdef SYMPILER_HAS_OPENMP
  if (hi - lo < serial_level_cutoff()) {
#pragma omp single
    for (index_t t = lo; t < hi; ++t) body(t);
  } else {
#pragma omp for schedule(static)
    for (index_t t = lo; t < hi; ++t) body(t);
  }
#else
  for (index_t t = lo; t < hi; ++t) body(t);
#endif
}

/// Same, but wide levels use dynamic scheduling (chunk 4) — the supernodal
/// factorization's levels mix panel sizes badly enough that static
/// assignment strands threads behind the big panels.
template <typename Body>
inline void run_level_dynamic(index_t lo, index_t hi, Body&& body) {
#ifdef SYMPILER_HAS_OPENMP
  if (hi - lo < serial_level_cutoff()) {
#pragma omp single
    for (index_t t = lo; t < hi; ++t) body(t);
  } else {
#pragma omp for schedule(dynamic, 4)
    for (index_t t = lo; t < hi; ++t) body(t);
  }
#else
  for (index_t t = lo; t < hi; ++t) body(t);
#endif
}

LevelSchedule bucket_by_level(std::span<const index_t> level) {
  g_schedule_builds.fetch_add(1, std::memory_order_relaxed);
  LevelSchedule s;
  const auto count = static_cast<index_t>(level.size());
  index_t nlevels = 0;
  for (const index_t l : level) nlevels = std::max(nlevels, l + 1);
  s.level_ptr.assign(static_cast<std::size_t>(nlevels) + 1, 0);
  for (const index_t l : level) ++s.level_ptr[l + 1];
  for (index_t l = 0; l < nlevels; ++l) s.level_ptr[l + 1] += s.level_ptr[l];
  s.items.resize(static_cast<std::size_t>(count));
  std::vector<index_t> next(s.level_ptr.begin(), s.level_ptr.end() - 1);
  for (index_t i = 0; i < count; ++i) s.items[next[level[i]]++] = i;
  return s;
}

}  // namespace

std::uint64_t level_schedule_builds() {
  return g_schedule_builds.load(std::memory_order_relaxed);
}

LevelSchedule level_schedule_columns(const CscMatrix& l) {
  const index_t n = l.cols();
  std::vector<index_t> level(static_cast<std::size_t>(n), 0);
  // Edge j -> i for every off-diagonal L(i,j); a forward sweep sees j
  // before i because i > j in a lower-triangular matrix.
  for (index_t j = 0; j < n; ++j)
    for (index_t p = l.col_begin(j) + 1; p < l.col_end(j); ++p) {
      const index_t i = l.rowind[p];
      level[i] = std::max(level[i], level[j] + 1);
    }
  return bucket_by_level(level);
}

LevelSchedule level_schedule_supernodes(const SupernodePartition& sn,
                                        std::span<const index_t> parent) {
  const std::vector<index_t> sparent = supernode_etree(sn, parent);
  // A supernode may also be updated by non-child descendants, but every
  // updating descendant is a descendant in the supernodal etree, so etree
  // levels give a safe schedule.
  std::vector<index_t> level(sparent.size(), 0);
  for (index_t s = 0; s < static_cast<index_t>(sparent.size()); ++s)
    if (sparent[s] != -1) level[sparent[s]] =
        std::max(level[sparent[s]], level[s] + 1);
  return bucket_by_level(level);
}

UpdateSlotMap update_slots_columns(const CscMatrix& l,
                                   std::span<const index_t> order) {
  const index_t n = l.cols();
  SYMPILER_CHECK(order.empty() || static_cast<index_t>(order.size()) == n,
                 "update_slots_columns: order must cover every column");
  UpdateSlotMap m;
  // Compact layout: diagonal positions can never produce a cross-column
  // update, so they are squeezed out instead of holding -1 — position p of
  // column j maps to p - j - 1 (see UpdateSlotMap::slot). Every compact
  // entry is written below, so no fill value is needed.
  m.slot.resize(static_cast<std::size_t>(l.nnz() - n));
  m.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = l.col_begin(j) + 1; p < l.col_end(j); ++p)
      ++m.row_ptr[l.rowind[p] + 1];
  for (index_t i = 0; i < n; ++i) m.row_ptr[i + 1] += m.row_ptr[i];
  // Scanning columns in the serial iteration order fills each row's slot
  // range in exactly the order the sequential solve subtracts its updates
  // — the consumer's fold replays it verbatim.
  std::vector<index_t> next(m.row_ptr.begin(), m.row_ptr.end() - 1);
  for (index_t k = 0; k < n; ++k) {
    const index_t j = order.empty() ? k : order[k];
    for (index_t p = l.col_begin(j) + 1; p < l.col_end(j); ++p)
      m.slot[p - j - 1] = next[l.rowind[p]]++;
  }
  return m;
}

UpdateSlotMap update_slots_supernodes(const solvers::SupernodalLayout& layout) {
  const index_t n = layout.n;
  UpdateSlotMap m;
  // Compact layout: a supernode's own diagonal-block rows never produce a
  // cross-supernode update, so they are squeezed out — srows position
  // srow_ptr[s] + u (u >= width(s)) maps to srow_ptr[s] + u - sn.start[s]
  // - width(s), valid because the block rows of supernodes 0..s sum to
  // exactly sn.start[s] + width(s). Every compact entry is written below.
  m.slot.resize(layout.srows.size() - static_cast<std::size_t>(n));
  m.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t w = layout.width(s);
    for (index_t t = layout.srow_ptr[s] + w; t < layout.srow_ptr[s + 1]; ++t)
      ++m.row_ptr[layout.srows[t] + 1];
  }
  for (index_t i = 0; i < n; ++i) m.row_ptr[i + 1] += m.row_ptr[i];
  std::vector<index_t> next(m.row_ptr.begin(), m.row_ptr.end() - 1);
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t w = layout.width(s);
    const index_t base = layout.sn.start[s] + w;
    for (index_t t = layout.srow_ptr[s] + w; t < layout.srow_ptr[s + 1]; ++t)
      m.slot[t - base] = next[layout.srows[t]]++;
  }
  return m;
}

namespace {

/// Injected parallel-path pivot failure (fault site pivot): throws on the
/// column a trigger selects, exercising the containment + serial-fallback
/// machinery of the plan-driven overloads.
inline void maybe_inject_pivot_fault(index_t j, value_t diag) {
  if (SYMPILER_FAULT_POINT(util::FaultSite::kPivot))
    throw numerical_error(
        "trisolve: injected pivot failure (fault site pivot, parallel)", j,
        diag);
}

void trisolve_levels(const CscMatrix& l, const AggregateSchedule& agg,
                     const UpdateSlotMap& umap, std::span<value_t> x,
                     std::span<value_t> terms, [[maybe_unused]] bool serial) {
  const value_t* Lx = l.values.data();
  const index_t* colptr = l.colptr.data();
  const index_t* slot = umap.slot.data();
  const index_t* rptr = umap.row_ptr.data();
  value_t* xp = x.data();
  value_t* tp = terms.data();
  util::AbortGuard guard;
  // One parallel region for the whole solve; each aggregate level is a
  // worksharing loop over tasks whose implicit barrier realizes the
  // wavefront dependence (and publishes the level's slot writes to every
  // later level). Tiny levels skip the omp-for and run serially in-place
  // (run_level). A fused chain runs its members in order on one thread,
  // and a bundle solves its lanes lock-step in the ISA-dispatched kernel.
  // Slot fold order is untouched, so results stay bit-identical to the
  // serial solve at any thread count.
  //
  // Worksharing uniformity: the level loop must NOT branch on
  // guard.failed() — a thread can observe the flag (set by a teammate
  // already inside level N's worksharing body) in the window between
  // level N-1's barrier and its own entry into level N, exit the loop,
  // and leave the team split across different barriers: a guaranteed
  // deadlock. Instead every thread always traverses the identical
  // construct sequence; after a failure guard.run turns the remaining
  // bodies into no-ops, so cancellation costs a sweep of empty barriers
  // (fine — failure is the rare path).
#ifdef SYMPILER_HAS_OPENMP
#pragma omp parallel if (!serial)
#endif
  {
    const auto run_task = [&](index_t t) {
      const index_t k0 = agg.task_ptr[t];
      const index_t k1 = agg.task_ptr[t + 1];
      const index_t j0 = agg.items[k0];
      maybe_inject_pivot_fault(j0, Lx[colptr[j0]]);
      if (agg.bundle[t]) {
        // All lanes share one (incoming-term, update) shape — the
        // coarsener grouped by it — so the counts of the first lane
        // describe every lane.
        blas::trisolve_bundle(k1 - k0, rptr[j0 + 1] - rptr[j0],
                              colptr[j0 + 1] - colptr[j0] - 1,
                              agg.items.data() + k0, colptr, Lx, slot, rptr,
                              xp, tp);
        return;
      }
      for (index_t k = k0; k < k1; ++k) {
        const index_t j = agg.items[k];
        // Fold the privatized incoming updates in ascending-column order —
        // the exact subtraction sequence of the serial solve.
        value_t xj = xp[j];
        for (index_t q = rptr[j]; q < rptr[j + 1]; ++q) xj -= tp[q];
        const index_t p0 = colptr[j];
        xj /= Lx[p0];
        xp[j] = xj;
        // Scatter this column's updates into its plan-assigned private
        // slots (compact off-diagonal indexing: position p maps to
        // p - j - 1); no two columns share a slot, so no atomics are needed.
        for (index_t p = p0 + 1; p < colptr[j + 1]; ++p)
          tp[slot[p - j - 1]] = Lx[p] * xj;
      }
    };
    for (index_t lev = 0; lev < agg.levels(); ++lev)
      run_level(agg.level_ptr[lev], agg.level_ptr[lev + 1],
                [&](index_t t) { guard.run([&] { run_task(t); }); });
  }
  guard.rethrow_if_failed();
}

}  // namespace

void parallel_trisolve(const CscMatrix& l, const AggregateSchedule& agg,
                       const UpdateSlotMap& umap, std::span<value_t> x,
                       std::span<value_t> terms) {
  trisolve_levels(l, agg, umap, x, terms, /*serial=*/false);
}

namespace {

void trisolve_multi_levels(const CscMatrix& l, const AggregateSchedule& agg,
                           const UpdateSlotMap& umap, value_t* xp,
                           index_t nrhs, index_t ldp, value_t* terms,
                           [[maybe_unused]] bool serial) {
  const value_t* Lx = l.values.data();
  const index_t* colptr = l.colptr.data();
  const index_t* slot = umap.slot.data();
  const index_t* rptr = umap.row_ptr.data();
  util::AbortGuard guard;
  // Chain fusion still pays here (fewer barriers), but bundles degenerate
  // to sequential lanes: the RHS loop is already the vector direction, and
  // serial lanes are bit-identical to lock-step by the bundle contract.
#ifdef SYMPILER_HAS_OPENMP
#pragma omp parallel if (!serial)
#endif
  {
    const auto run_task = [&](index_t t) {
      const index_t jf = agg.items[agg.task_ptr[t]];
      maybe_inject_pivot_fault(jf, Lx[colptr[jf]]);
      for (index_t k = agg.task_ptr[t]; k < agg.task_ptr[t + 1]; ++k) {
        const index_t j = agg.items[k];
        value_t* xj = xp + static_cast<std::int64_t>(j) * ldp;
        for (index_t q = rptr[j]; q < rptr[j + 1]; ++q) {
          const value_t* tq = terms + static_cast<std::int64_t>(q) * ldp;
          for (index_t r = 0; r < nrhs; ++r) xj[r] -= tq[r];
        }
        const index_t p0 = colptr[j];
        const value_t piv = Lx[p0];
        for (index_t r = 0; r < nrhs; ++r) xj[r] /= piv;
        for (index_t p = p0 + 1; p < colptr[j + 1]; ++p) {
          const value_t lv = Lx[p];
          value_t* tq =
              terms + static_cast<std::int64_t>(slot[p - j - 1]) * ldp;
          for (index_t r = 0; r < nrhs; ++r) tq[r] = lv * xj[r];
        }
      }
    };
    for (index_t lev = 0; lev < agg.levels(); ++lev)
      run_level(agg.level_ptr[lev], agg.level_ptr[lev + 1],
                [&](index_t t) { guard.run([&] { run_task(t); }); });
  }
  guard.rethrow_if_failed();
}

}  // namespace

bool parallel_trisolve(const CscMatrix& l, const core::TriSolvePlan& plan,
                       std::span<value_t> x, core::Workspace& ws,
                       Status* fallback_error) {
  SYMPILER_CHECK(plan.path == core::ExecutionPath::ParallelTriSolve,
                 "parallel_trisolve: plan path is not ParallelTriSolve");
  core::WorkspaceDims dims = plan.workspace;
  dims.rhs_block = 1;  // one packed column: the pre-sweep snapshot of x
  ws.ensure(dims);
  // The sweep solves in place, so the serial fallback needs the input
  // back: snapshot it into the (otherwise idle) packed-RHS column.
  value_t* snap = ws.rhs_block();
  std::copy(x.begin(), x.end(), snap);
  const auto sweep = [&](bool serial) {
    trisolve_levels(l, plan.agg, plan.update_map, x, ws.terms(), serial);
  };
  try {
    sweep(/*serial=*/false);
    return false;
  } catch (const std::exception& e) {
    // Infrastructure fault mid-sweep: restore the input and re-run the
    // same schedule serially — bit-identical by the determinism contract.
    if (fallback_error != nullptr) *fallback_error = status_of(e);
    std::copy(snap, snap + x.size(), x.begin());
    sweep(/*serial=*/true);
    return true;
  }
}

bool parallel_trisolve_batch(const CscMatrix& l, const core::TriSolvePlan& plan,
                             std::span<value_t> xs, index_t nrhs,
                             core::Workspace& ws, Status* fallback_error) {
  SYMPILER_CHECK(plan.path == core::ExecutionPath::ParallelTriSolve,
                 "parallel_trisolve_batch: plan path is not ParallelTriSolve");
  if (nrhs <= 0) return false;
  const index_t n = l.cols();
  // Blocks sweep the schedule sequentially (parallelism lives inside each
  // level), so no lane narrowing applies.
  const index_t bw =
      core::rhs_block_width(plan.workspace.rhs_block, nrhs, /*lanes=*/1);
  core::WorkspaceDims dims = plan.workspace;
  dims.rhs_block = std::min(bw, nrhs);
  ws.ensure(dims);
  value_t* xp = ws.rhs_block();
  value_t* terms = ws.terms().data();
  bool degraded = false;
  for (index_t r0 = 0; r0 < nrhs; r0 += bw) {
    const index_t nb = std::min(bw, nrhs - r0);
    value_t* x0 = xs.data() + static_cast<std::size_t>(r0) * n;
    blas::pack_rhs(n, nb, x0, n, xp, nb);
    const auto sweep = [&](bool serial) {
      trisolve_multi_levels(l, plan.agg, plan.update_map, xp, nb, nb, terms,
                            serial);
    };
    try {
      sweep(/*serial=*/false);
    } catch (const std::exception& e) {
      // The block's input columns are untouched until unpack — repack
      // them and re-sweep serially (bit-identical).
      if (!degraded && fallback_error != nullptr)
        *fallback_error = status_of(e);
      degraded = true;
      blas::pack_rhs(n, nb, x0, n, xp, nb);
      sweep(/*serial=*/true);
    }
    blas::unpack_rhs(n, nb, xp, nb, x0, n);
  }
  return degraded;
}

namespace {

/// Body of the parallel Cholesky sweep: the worksharing unit is a fused
/// chain of supernodes executed in order on one thread (update sources of
/// a chain member are either earlier members or earlier aggregate levels).
void cholesky_levels(const core::CholeskySets& sets,
                     const AggregateSchedule& agg, const CscMatrix& a_lower,
                     std::span<value_t> panels,
                     [[maybe_unused]] bool serial) {
  const solvers::SupernodalLayout& layout = sets.layout;
  // Plan-sized scratch dimensions (pure layout reads); each OS thread
  // keeps one grow-only workspace across calls and plans, so a warm
  // factorization allocates nothing on any thread. A is scattered into
  // each panel inside its supernode's body, in parallel, through the row
  // map that body builds anyway.
  core::WorkspaceDims dims = core::cholesky_workspace_dims(layout);
  dims.rhs_block = 0;
  dims.need_dense = false;  // factorization uses map + update tiles only
  static thread_local core::Workspace ws;
  util::AbortGuard guard;
#ifdef SYMPILER_HAS_OPENMP
#pragma omp parallel if (!serial)
#endif
  {
    // Per-worker workspace growth can fail (allocation); contain it and
    // let the barrier below publish the flag before any level body runs
    // (a failed worker's spans stay empty but are never dereferenced —
    // guard.run skips every body once the flag is set).
    guard.run([&] { ws.ensure(dims); });
#ifdef SYMPILER_HAS_OPENMP
#pragma omp barrier
#endif
    const std::span<value_t> work_span = ws.update();
    const std::span<index_t> map_span = ws.map();
    value_t* const work_data = work_span.data();
    index_t* const map_data = map_span.data();
    const auto factor_supernode = [&](index_t s) {
      const index_t c1 = layout.sn.start[s];
      const index_t w = layout.width(s);
      const index_t m = layout.nrows(s);
      const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
      value_t* panel = panels.data() + layout.panel_ptr[s];
      for (index_t r = 0; r < m; ++r) map_data[rows[r]] = r;
      solvers::scatter_supernode(layout, a_lower, s, panel, map_data);
      for (index_t u = sets.updates.ptr[s]; u < sets.updates.ptr[s + 1]; ++u) {
        const solvers::UpdateRef ref = sets.updates.refs[u];
        const index_t* drows = layout.srows.data() + layout.srow_ptr[ref.d];
        const index_t dm = layout.nrows(ref.d);
        const index_t dw = layout.width(ref.d);
        const value_t* dpanel = panels.data() + layout.panel_ptr[ref.d];
        const index_t mu = dm - ref.p1;
        const index_t nu = ref.p2 - ref.p1;
        std::fill(work_data, work_data + static_cast<std::int64_t>(mu) * nu,
                  0.0);
        blas::gemm_nt_minus(mu, nu, dw, dpanel + ref.p1, dm, dpanel + ref.p1,
                            dm, work_data, mu);
        for (index_t cj = 0; cj < nu; ++cj) {
          value_t* dst =
              panel + static_cast<std::int64_t>(drows[ref.p1 + cj] - c1) * m;
          const value_t* src = work_data + static_cast<std::int64_t>(cj) * mu;
          for (index_t r = cj; r < mu; ++r)
            dst[map_data[drows[ref.p1 + r]]] += src[r];
        }
      }
      if (SYMPILER_FAULT_POINT(util::FaultSite::kPivot))
        throw numerical_error(
            "cholesky: injected pivot failure (fault site pivot, parallel)",
            c1, panel[0]);
      try {
        blas::potrf_lower(w, panel, m);
      } catch (const numerical_error& e) {
        // The dense kernel knows only the local column; re-anchor at the
        // supernode's global first column (matches the serial executor).
        throw numerical_error(std::string(e.what()) +
                                  " (supernode starting at column " +
                                  std::to_string(c1) + ")",
                              c1, panel[0]);
      }
      if (m > w)
        blas::trsm_right_lower_trans(m - w, w, panel, m, panel + w, m);
    };
    for (index_t lev = 0; lev < agg.levels(); ++lev)
      run_level_dynamic(agg.level_ptr[lev], agg.level_ptr[lev + 1],
                        [&](index_t t) {
                          guard.run([&] {
                            for (index_t k = agg.task_ptr[t];
                                 k < agg.task_ptr[t + 1]; ++k)
                              factor_supernode(agg.items[k]);
                          });
                        });
  }
  guard.rethrow_if_failed();
}

}  // namespace

void parallel_cholesky(const core::CholeskySets& sets,
                       const AggregateSchedule& agg, const CscMatrix& a_lower,
                       std::span<value_t> panels) {
  cholesky_levels(sets, agg, a_lower, panels, /*serial=*/false);
}

bool parallel_cholesky(const core::CholeskyPlan& plan,
                       const CscMatrix& a_lower, std::span<value_t> panels,
                       Status* fallback_error) {
  SYMPILER_CHECK(plan.path == core::ExecutionPath::ParallelSupernodal,
                 "parallel_cholesky: plan path is not ParallelSupernodal");
  try {
    cholesky_levels(plan.sets, plan.agg, a_lower, panels, /*serial=*/false);
    return false;
  } catch (const numerical_error&) {
    // A pivot failure is a property of the data: the serial re-run would
    // hit the same pivot, so surface it — the facade's shift-retry ladder
    // owns numeric recovery.
    throw;
  } catch (const std::exception& e) {
    // Infrastructure fault (workspace growth, injected fault): re-scatter
    // A and re-run the same schedule serially — bit-identical by the
    // determinism contract.
    if (fallback_error != nullptr) *fallback_error = status_of(e);
    cholesky_levels(plan.sets, plan.agg, a_lower, panels, /*serial=*/true);
    return true;
  }
}

namespace {

/// One grow-only per-thread tail workspace shared by the forward and
/// backward sweeps (they never overlap, and sharing halves the pinned
/// per-thread scratch).
core::Workspace& panel_tls_workspace() {
  static thread_local core::Workspace ws;
  return ws;
}

/// Per-thread tail scratch dims of the level sweeps. `max_tail` comes
/// from the plan (plan.workspace.max_tail) — no layout scan on the warm
/// path.
core::WorkspaceDims panel_tail_dims(index_t max_tail, index_t ldp) {
  core::WorkspaceDims dims;
  dims.max_tail = max_tail;
  dims.rhs_block = ldp;
  dims.need_map = false;
  dims.need_dense = false;
  return dims;
}

/// Forward level sweep over a packed RHS block: supernode s folds its own
/// rows' incoming terms (ascending contributing supernode — the serial
/// order), solves its diagonal block, and writes its below-diagonal tail
/// contributions into its private slots instead of racing on x.
void panel_forward_levels(const solvers::SupernodalLayout& layout,
                          const AggregateSchedule& agg,
                          const UpdateSlotMap& umap,
                          std::span<const value_t> panels, value_t* xp,
                          index_t nrhs, index_t ldp, value_t* terms,
                          index_t max_tail, [[maybe_unused]] bool serial) {
  const index_t* slot = umap.slot.data();
  const index_t* rptr = umap.row_ptr.data();
  const core::WorkspaceDims tail_dims = panel_tail_dims(max_tail, ldp);
  util::AbortGuard guard;
#ifdef SYMPILER_HAS_OPENMP
#pragma omp parallel if (!serial)
#endif
  {
    core::Workspace& tls = panel_tls_workspace();
    guard.run([&] { tls.ensure(tail_dims); });
#ifdef SYMPILER_HAS_OPENMP
#pragma omp barrier
#endif
    value_t* tail = tls.tail().data();
    const auto solve_supernode = [&](index_t s) {
      if (SYMPILER_FAULT_POINT(util::FaultSite::kPivot))
        throw numerical_error(
            "panel solve: injected pivot failure (fault site pivot, "
            "parallel)",
            layout.sn.start[s], panels[layout.panel_ptr[s]]);
      const index_t c1 = layout.sn.start[s];
      const index_t w = layout.width(s);
      const index_t m = layout.nrows(s);
      const value_t* panel = panels.data() + layout.panel_ptr[s];
      for (index_t j = c1; j < c1 + w; ++j) {
        value_t* xj = xp + static_cast<std::int64_t>(j) * ldp;
        for (index_t q = rptr[j]; q < rptr[j + 1]; ++q) {
          const value_t* tq = terms + static_cast<std::int64_t>(q) * ldp;
          for (index_t r = 0; r < nrhs; ++r) xj[r] += tq[r];
        }
      }
      blas::trsm_lower_multi(w, nrhs, panel, m,
                             xp + static_cast<std::int64_t>(c1) * ldp, ldp);
      if (m > w) {
        std::fill(tail, tail + static_cast<std::int64_t>(m - w) * ldp, 0.0);
        blas::gemm_minus_multi(m - w, w, nrhs, panel + w, m,
                               xp + static_cast<std::int64_t>(c1) * ldp, ldp,
                               tail, ldp);
        // Compact below-diagonal slot indexing: srows position
        // srow_ptr[s] + u maps to srow_ptr[s] + u - c1 - w.
        const index_t sbase = layout.srow_ptr[s] - c1 - w;
        for (index_t u = w; u < m; ++u) {
          const value_t* src = tail + static_cast<std::int64_t>(u - w) * ldp;
          value_t* dst =
              terms + static_cast<std::int64_t>(slot[sbase + u]) * ldp;
          for (index_t r = 0; r < nrhs; ++r) dst[r] = src[r];
        }
      }
    };
    for (index_t lev = 0; lev < agg.levels(); ++lev)
      run_level(agg.level_ptr[lev], agg.level_ptr[lev + 1], [&](index_t t) {
        guard.run([&] {
          for (index_t k = agg.task_ptr[t]; k < agg.task_ptr[t + 1]; ++k)
            solve_supernode(agg.items[k]);
        });
      });
  }
  guard.rethrow_if_failed();
}

/// Backward sweep over reversed levels. No privatization needed: each
/// supernode writes only its own block rows and reads tail rows owned by
/// ancestors, which finish earlier in the reversed sweep and are final.
void panel_backward_levels(const solvers::SupernodalLayout& layout,
                           const AggregateSchedule& agg,
                           std::span<const value_t> panels, value_t* xp,
                           index_t nrhs, index_t ldp, index_t max_tail,
                           [[maybe_unused]] bool serial) {
  const core::WorkspaceDims tail_dims = panel_tail_dims(max_tail, ldp);
  util::AbortGuard guard;
#ifdef SYMPILER_HAS_OPENMP
#pragma omp parallel if (!serial)
#endif
  {
    core::Workspace& tls = panel_tls_workspace();
    guard.run([&] { tls.ensure(tail_dims); });
#ifdef SYMPILER_HAS_OPENMP
#pragma omp barrier
#endif
    value_t* tail = tls.tail().data();
    const auto solve_supernode = [&](index_t s) {
      const index_t c1 = layout.sn.start[s];
      const index_t w = layout.width(s);
      const index_t m = layout.nrows(s);
      const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
      const value_t* panel = panels.data() + layout.panel_ptr[s];
      if (m > w) {
        for (index_t u = w; u < m; ++u) {
          const value_t* src = xp + static_cast<std::int64_t>(rows[u]) * ldp;
          value_t* dst = tail + static_cast<std::int64_t>(u - w) * ldp;
          for (index_t r = 0; r < nrhs; ++r) dst[r] = src[r];
        }
        blas::gemm_trans_minus_multi(
            m - w, w, nrhs, panel + w, m, tail, ldp,
            xp + static_cast<std::int64_t>(c1) * ldp, ldp);
      }
      blas::trsm_lower_transpose_multi(
          w, nrhs, panel, m, xp + static_cast<std::int64_t>(c1) * ldp, ldp);
    };
    // Backward validity needs both reversals: levels in reverse order,
    // and items inside each chain in reverse order (a chain member's
    // forward-dependent is either a later member of the same chain or
    // lives at a strictly later aggregate level).
    for (index_t lev = agg.levels() - 1; lev >= 0; --lev)
      run_level(agg.level_ptr[lev], agg.level_ptr[lev + 1], [&](index_t t) {
        guard.run([&] {
          for (index_t k = agg.task_ptr[t + 1] - 1; k >= agg.task_ptr[t]; --k)
            solve_supernode(agg.items[k]);
        });
      });
  }
  guard.rethrow_if_failed();
}

}  // namespace

bool parallel_panel_solve_batch(const core::CholeskyPlan& plan,
                                std::span<const value_t> panels,
                                std::span<value_t> bx, index_t nrhs,
                                core::Workspace& ws, Status* fallback_error) {
  SYMPILER_CHECK(plan.path == core::ExecutionPath::ParallelSupernodal,
                 "parallel_panel_solve_batch: plan path is not "
                 "ParallelSupernodal");
  if (nrhs <= 0) return false;
  const solvers::SupernodalLayout& layout = plan.sets.layout;
  const index_t n = layout.n;
  const index_t bw =
      core::rhs_block_width(plan.workspace.rhs_block, nrhs, /*lanes=*/1);
  // The shared workspace carries only the packed block + terms; the
  // per-thread tail scratch lives in the sweeps' thread_local workspaces.
  core::WorkspaceDims dims = plan.workspace;
  dims.rhs_block = std::min(bw, nrhs);
  dims.max_panel_rows = 0;
  dims.max_panel_width = 0;
  dims.max_tail = 0;
  dims.need_map = false;
  dims.need_dense = false;
  try {
    ws.ensure(dims);
  } catch (const std::exception& e) {
    // No packed block, no level sweep — run the whole batch through the
    // sequential blocked driver instead (bit-identical per column, with
    // per-thread workspaces of its own). bx is untouched at this point.
    if (fallback_error != nullptr) *fallback_error = status_of(e);
    core::blocked_panel_solve_batch(layout, panels, plan.workspace, bx, nrhs);
    return true;
  }
  value_t* xp = ws.rhs_block();
  value_t* terms = ws.terms().data();
  bool degraded = false;
  for (index_t r0 = 0; r0 < nrhs; r0 += bw) {
    const index_t nb = std::min(bw, nrhs - r0);
    value_t* x0 = bx.data() + static_cast<std::size_t>(r0) * n;
    blas::pack_rhs(n, nb, x0, n, xp, nb);
    const auto sweep = [&](bool serial) {
      panel_forward_levels(layout, plan.agg, plan.solve_update_map, panels,
                           xp, nb, nb, terms, plan.workspace.max_tail, serial);
      panel_backward_levels(layout, plan.agg, panels, xp, nb, nb,
                            plan.workspace.max_tail, serial);
    };
    try {
      sweep(/*serial=*/false);
    } catch (const std::exception& e) {
      // The block's input columns are untouched until unpack — repack
      // them and re-sweep serially (bit-identical).
      if (!degraded && fallback_error != nullptr)
        *fallback_error = status_of(e);
      degraded = true;
      blas::pack_rhs(n, nb, x0, n, xp, nb);
      sweep(/*serial=*/true);
    }
    blas::unpack_rhs(n, nb, xp, nb, x0, n);
  }
  return degraded;
}

}  // namespace sympiler::parallel
