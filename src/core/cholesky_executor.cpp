#include "core/cholesky_executor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/planner.h"
#include "core/supernode_body.h"
#include "util/fault.h"

namespace sympiler::core {

namespace {

std::shared_ptr<const CholeskyPlan> plan_sequential(const CscMatrix& a_lower,
                                                    SympilerOptions opt) {
  PlannerConfig config;
  config.options = opt;
  config.enable_parallel = false;  // direct executors interpret sequentially
  // No cache involved, so no key: an empty one skips the O(nnz) hash.
  return std::make_shared<const CholeskyPlan>(
      Planner(config).plan_cholesky(a_lower, PatternKey{}));
}

/// dst[0..len) -= src[0..len) * s: the dense form of a contiguous row run.
inline void dense_minus(index_t len, const value_t* __restrict src, value_t s,
                        value_t* __restrict dst) {
  for (index_t t = 0; t < len; ++t) dst[t] -= src[t] * s;
}

/// y[Li[p]] -= Lx[p] * s over positions [pb, pe) of one column of L — the
/// simplicial factor's update and the forward solve's column update.
/// Per element the same multiply-then-subtract on either branch.
inline void column_minus(const index_t* li, const value_t* lx, index_t pb,
                         index_t pe, value_t s, value_t* y) {
  if (dense_row_run(li, pb, pe)) {
    dense_minus(pe - pb, lx + pb, s, y + li[pb]);
  } else {
    for (index_t p = pb; p < pe; ++p) y[li[p]] -= lx[p] * s;
  }
}

}  // namespace

DenseRunShare dense_run_share(const CscMatrix& l_pattern) {
  const index_t* li = l_pattern.rowind.data();
  double factor_all = 0.0, factor_dense = 0.0;
  double solve_all = 0.0, solve_dense = 0.0;
  for (index_t k = 0; k < l_pattern.cols(); ++k) {
    const index_t first = l_pattern.col_begin(k) + 1;  // below the diagonal
    const index_t pe = l_pattern.col_end(k);
    for (index_t p = first; p < pe; ++p) {
      const double len = pe - p;
      const bool dense = dense_row_run(li, p, pe);
      factor_all += len;
      if (dense) factor_dense += len;
      if (p != first) continue;  // the solve updates once, from `first`
      solve_all += len;
      if (dense) solve_dense += len;
    }
  }
  return {factor_all > 0.0 ? factor_dense / factor_all : 0.0,
          solve_all > 0.0 ? solve_dense / solve_all : 0.0};
}

CholeskyExecutor::CholeskyExecutor(const CscMatrix& a_lower,
                                   SympilerOptions opt)
    : CholeskyExecutor(plan_sequential(a_lower, opt), opt.guard_workspace) {}

CholeskyExecutor::CholeskyExecutor(std::shared_ptr<const CholeskyPlan> plan,
                                   bool guard_workspace)
    : plan_(std::move(plan)) {
  SYMPILER_CHECK(plan_ != nullptr, "cholesky executor: null plan");
  sets_ = &plan_->sets;
  ws_.set_guard(guard_workspace);
  // Size all numeric scratch once, from the plan's dimensions: factorize()
  // and solve() never allocate after this point. The executor's own
  // workspace skips the packed-RHS block (solve_batch uses per-thread
  // workspaces sized with it).
  WorkspaceDims dims = plan_->workspace;
  dims.rhs_block = 0;  // packed-RHS blocks live in solve_batch's per-thread
                       // workspaces; the tail keeps its single-RHS row
  dims.update_slots = 0;  // privatized terms belong to the parallel
                          // interpreters' workspaces, not this executor
  if (vs_block_applied()) {
    values_.resize(static_cast<std::size_t>(sets_->layout.total_values()));
    dims.need_dense = false;  // dense column is simplicial-only scratch
  } else {
    values_.resize(static_cast<std::size_t>(sets_->sym.l_pattern.nnz()));
  }
  ws_.ensure(dims);
}

void CholeskyExecutor::factorize(const CscMatrix& a_lower) {
  // Invalidate up front: a numeric failure below must not leave a
  // previously successful factorization reachable through solve() with
  // half-overwritten values (factor-after-failure then starts clean).
  factorized_ = false;
  // Pure plan dispatch: the path was decided at plan time. A published
  // plan-compiled kernel (plan_compiler.h) takes over the whole numeric
  // phase — it consumes exactly the buffers sized here, so adopting it
  // costs one mutex peek and no allocation, and it is pinned bit-identical
  // to the interpreters below.
  const Workspace::Borrow guard(ws_);
  if (const auto kernel = plan_->jit->kernel()) {
    if (SYMPILER_FAULT_POINT(util::FaultSite::kPivot))
      throw numerical_error(
          "cholesky: injected pivot failure (fault site pivot, jit path)");
    const auto fn = kernel->entry<PlanCholeskyFn>();
    value_t* scratch =
        vs_block_applied() ? ws_.update().data() : ws_.dense().data();
    const int rc =
        fn(a_lower.colptr.data(), a_lower.rowind.data(), a_lower.values.data(),
           values_.data(), scratch, ws_.map().data());
    if (rc != 0) {
      // The kernel stopped at column c (simplicial) or at the supernode
      // starting there; report the pivot the interpreter would: the dense
      // accumulation entry, or the first entry of the supernode's panel.
      const index_t c = -1 - rc;
      const solvers::SupernodalLayout& layout = sets_->layout;
      const value_t d =
          vs_block_applied()
              ? values_[layout.panel_ptr[layout.sn.col_to_super[c]]]
              : scratch[c];
      throw numerical_error(
          "cholesky: non-positive pivot at column " + std::to_string(c) +
              " (compiled kernel)",
          c, d);
    }
    factorized_ = true;
    return;
  }
  if (vs_block_applied()) {
    factorize_supernodal(a_lower);
  } else {
    factorize_simplicial(a_lower);
  }
  factorized_ = true;
}

void CholeskyExecutor::factorize_supernodal(const CscMatrix& a_lower) {
  // Supernodes in order, each through the body the parallel interpreter
  // shares (core/supernode_body.h) — so both agree bit for bit.
  value_t* work = ws_.update().data();
  index_t* map = ws_.map().data();
  for (index_t s = 0; s < sets_->layout.nsuper(); ++s)
    factor_supernode(*sets_, a_lower, s, values_.data(), map, work);
}

void CholeskyExecutor::factorize_simplicial(const CscMatrix& a_lower) {
  // VI-Prune-only path: Figure 4 with the update iteration space pruned by
  // the precomputed row patterns. No transpose, no ereach. L's pattern is
  // the plan's; the dense accumulation column and the per-row cursors are
  // plan-sized workspace.
  const CscMatrix& lp = sets_->sym.l_pattern;
  const index_t n = lp.cols();
  const index_t* li = lp.rowind.data();
  value_t* lx = values_.data();
  value_t* f = ws_.dense().data();
  index_t* next = ws_.map().data();
  std::fill(f, f + n, 0.0);
  std::fill(next, next + n, 0);
  const index_t* rowpat = sets_->rowpat.data();

  for (index_t j = 0; j < n; ++j) {
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p) {
      const index_t i = a_lower.rowind[p];
      if (i >= j) f[i] = a_lower.values[p];
    }
    for (index_t q = sets_->rowpat_ptr[j]; q < sets_->rowpat_ptr[j + 1]; ++q) {
      const index_t k = rowpat[q];
      const index_t pj = next[k];
      column_minus(li, lx, pj, lp.col_end(k), lx[pj], f);
      next[k] = pj + 1;
    }
    const value_t d = f[j];
    if (SYMPILER_FAULT_POINT(util::FaultSite::kPivot))
      throw numerical_error(
          "cholesky: injected pivot failure (fault site pivot, simplicial)",
          j, d);
    if (!(d > 0.0))
      throw numerical_error(
          "cholesky: non-positive pivot at column " + std::to_string(j), j, d);
    const value_t ljj = std::sqrt(d);
    const index_t pdiag = lp.col_begin(j);
    lx[pdiag] = ljj;
    f[j] = 0.0;
    const value_t inv = 1.0 / ljj;
    for (index_t p = pdiag + 1; p < lp.col_end(j); ++p) {
      const index_t i = li[p];
      lx[p] = f[i] * inv;
      f[i] = 0.0;
    }
    next[j] = pdiag + 1;
  }
}

// The simplicial solves are solvers::trisolve_naive and trisolve_transpose
// (same operation order, so the same bits) over the plan's pattern and the
// executor's values. The factorization's pivot test guarantees a positive
// diagonal, so neither checks for a zero one.
void CholeskyExecutor::forward_simplicial(value_t* x) const {
  const CscMatrix& lp = sets_->sym.l_pattern;
  const index_t* li = lp.rowind.data();
  const value_t* lx = values_.data();
  for (index_t j = 0; j < lp.cols(); ++j) {
    const index_t pdiag = lp.col_begin(j);
    const value_t xj = x[j] / lx[pdiag];
    x[j] = xj;
    column_minus(li, lx, pdiag + 1, lp.col_end(j), xj, x);
  }
}

void CholeskyExecutor::backward_simplicial(value_t* x) const {
  const CscMatrix& lp = sets_->sym.l_pattern;
  const index_t* li = lp.rowind.data();
  const value_t* lx = values_.data();
  for (index_t j = lp.cols() - 1; j >= 0; --j) {
    const index_t pdiag = lp.col_begin(j);
    value_t s = x[j];
    for (index_t p = pdiag + 1; p < lp.col_end(j); ++p) s -= lx[p] * x[li[p]];
    x[j] = s / lx[pdiag];
  }
}

void CholeskyExecutor::solve(std::span<value_t> bx) const {
  SYMPILER_CHECK(factorized_, "solve() before factorize()");
  SYMPILER_CHECK(static_cast<index_t>(bx.size()) == sets_->n(),
                 "solve: size mismatch");
  if (vs_block_applied()) {
    // solve() borrows the shared tail scratch — loud in debug builds if
    // two threads enter one executor (use solve_batch instead).
    const Workspace::Borrow guard(ws_);
    panel_forward_solve(sets_->layout, values_, bx, ws_.tail());
    panel_backward_solve(sets_->layout, values_, bx, ws_.tail());
  } else {
    forward_simplicial(bx.data());
    backward_simplicial(bx.data());
  }
}

void CholeskyExecutor::solve_batch(std::span<value_t> bx, index_t nrhs) const {
  SYMPILER_CHECK(factorized_, "solve_batch() before factorize()");
  SYMPILER_CHECK(nrhs >= 0, "solve_batch: negative RHS count");
  const auto n = static_cast<std::size_t>(sets_->n());
  SYMPILER_CHECK(bx.size() == n * static_cast<std::size_t>(nrhs),
                 "solve_batch: batch size mismatch");
  if (vs_block_applied()) {
    blocked_panel_solve_batch(sets_->layout, values_, plan_->workspace, bx,
                              nrhs);
  } else {
    // Simplicial solves read only the immutable factor (no workspace), so
    // the independent RHS columns parallelize directly.
#ifdef SYMPILER_HAS_OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (index_t r = 0; r < nrhs; ++r)
      solve(bx.subspan(static_cast<std::size_t>(r) * n, n));
  }
}

CscMatrix CholeskyExecutor::factor_csc() const {
  SYMPILER_CHECK(factorized_, "factor_csc() before factorize()");
  // Supernodal plans keep A's pattern, not L's: one symbolic pass
  // re-derives L's exact pattern, which the panels then fill.
  CscMatrix l = sets_->factor_pattern();
  if (vs_block_applied())
    return panels_to_csc(sets_->layout, values_, std::move(l));
  l.values = values_;
  return l;
}

}  // namespace sympiler::core
