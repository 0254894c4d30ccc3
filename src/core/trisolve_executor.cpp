#include "core/trisolve_executor.h"

#include <algorithm>

#include "core/planner.h"

namespace sympiler::core {

namespace {

std::shared_ptr<const TriSolvePlan> plan_sequential(
    const CscMatrix& l, std::span<const index_t> beta, SympilerOptions opt) {
  PlannerConfig config;
  config.options = opt;
  config.enable_parallel = false;  // direct executors interpret sequentially
  // No cache involved, so no key: an empty one skips the O(nnz) hash.
  return std::make_shared<const TriSolvePlan>(
      Planner(config).plan_trisolve(l, beta, PatternKey{}));
}

}  // namespace

TriSolveExecutor::TriSolveExecutor(const CscMatrix& l,
                                   std::span<const index_t> beta,
                                   SympilerOptions opt)
    : TriSolveExecutor(plan_sequential(l, beta, opt), l, opt.guard_workspace) {
}

TriSolveExecutor::TriSolveExecutor(std::shared_ptr<const TriSolvePlan> plan,
                                   const CscMatrix& l, bool guard_workspace)
    : l_(&l), plan_(std::move(plan)) {
  SYMPILER_CHECK(plan_ != nullptr, "trisolve executor: null plan");
  sets_ = &plan_->sets;
  // Size the single-RHS tail scratch from the plan's dimensions (largest
  // block tail over all supernodes: the VS-Block-only configuration
  // traverses every block). The packed multi-RHS buffers grow on the first
  // solve_batch and are reused after. A ParallelTriSolve plan is
  // interpreted sequentially here, so its privatized terms stay unpinned
  // (the parallel interpreter carries its own workspace).
  WorkspaceDims dims = plan_->workspace;
  dims.rhs_block = 0;
  dims.update_slots = 0;
  ws_.set_guard(guard_workspace);
  ws_.ensure(dims);
}

void TriSolveExecutor::solve(std::span<value_t> x) const {
  SYMPILER_CHECK(static_cast<index_t>(x.size()) == l_->cols(),
                 "trisolve executor: size mismatch");
  // Pure plan dispatch: the path was decided at plan time. ParallelTriSolve
  // plans run the pruned interpretation when executed sequentially here.
  // A published plan-compiled kernel (plan_compiler.h) takes over the whole
  // solve — it reads the same L arrays and the same tail scratch, so
  // adopting it costs one mutex peek and no allocation, and it is pinned
  // bit-identical to the interpreters below.
  if (const auto kernel = plan_->jit->kernel()) {
    const Workspace::Borrow guard(ws_);
    kernel->entry<PlanTriSolveFn>()(l_->colptr.data(), l_->rowind.data(),
                                    l_->values.data(), x.data(),
                                    ws_.tail().data());
    return;
  }
  if (plan_->path == ExecutionPath::BlockedTriSolve) {
    // The one-column case of the packed sweep: x itself is the packed
    // block.
    const Workspace::Borrow guard(ws_);
    solve_blocked_multi(x.data(), 1, 1, ws_.tail().data());
  } else {
    solve_pruned(x);
  }
}

void TriSolveExecutor::solve_pruned(std::span<value_t> x) const {
  // VI-Prune only (paper Figure 1d/1e without blocking): iterate the
  // reach-set; with low-level transformations on, iterations whose column
  // count exceeds the peel threshold take the unrolled "peeled" body.
  const CscMatrix& l = *l_;
  const index_t* Li = l.rowind.data();
  const value_t* Lx = l.values.data();
  if (!plan_->options.vi_prune) {
    // Neither transformation applied: the naive library loop.
    for (index_t j = 0; j < l.cols(); ++j) {
      if (x[j] == 0.0) continue;
      const index_t p0 = l.col_begin(j);
      const value_t xj = x[j] / Lx[p0];
      x[j] = xj;
      for (index_t p = p0 + 1; p < l.col_end(j); ++p)
        x[Li[p]] -= Lx[p] * xj;
    }
    return;
  }
  for (const index_t j : sets_->reach) {
    const index_t p0 = l.col_begin(j);
    const index_t p1 = l.col_end(j);
    const value_t xj = x[j] / Lx[p0];
    x[j] = xj;
    if (plan_->options.low_level &&
        p1 - p0 - 1 > plan_->options.peel_colcount) {
      // Peeled body: 4-way unrolled update (the PlanCompiler's
      // straight-line form unrolls it fully, with literal bounds).
      index_t p = p0 + 1;
      for (; p + 3 < p1; p += 4) {
        x[Li[p]] -= Lx[p] * xj;
        x[Li[p + 1]] -= Lx[p + 1] * xj;
        x[Li[p + 2]] -= Lx[p + 2] * xj;
        x[Li[p + 3]] -= Lx[p + 3] * xj;
      }
      for (; p < p1; ++p) x[Li[p]] -= Lx[p] * xj;
    } else {
      for (index_t p = p0 + 1; p < p1; ++p) x[Li[p]] -= Lx[p] * xj;
    }
  }
}

void TriSolveExecutor::solve_batch(std::span<value_t> xs, index_t nrhs) const {
  SYMPILER_CHECK(nrhs >= 0, "trisolve solve_batch: negative RHS count");
  const auto n = static_cast<std::size_t>(l_->cols());
  SYMPILER_CHECK(xs.size() == n * static_cast<std::size_t>(nrhs),
                 "trisolve solve_batch: batch size mismatch");
  if (plan_->path != ExecutionPath::BlockedTriSolve) {
    for (index_t r = 0; r < nrhs; ++r)
      solve(xs.subspan(static_cast<std::size_t>(r) * n, n));
    return;
  }
  // Blocked path: pack RHS blocks and run the supernodal traversal once
  // per block. Blocks are swept sequentially, so no lane narrowing. The
  // packed buffers grow on first use, then are steady.
  const Workspace::Borrow guard(ws_);
  const index_t bw =
      rhs_block_width(plan_->workspace.rhs_block, nrhs, /*lanes=*/1);
  WorkspaceDims dims = plan_->workspace;
  dims.rhs_block = std::min(bw, nrhs);  // grow to the batch actually used
  dims.update_slots = 0;
  ws_.ensure(dims);
  for (index_t r0 = 0; r0 < nrhs; r0 += bw) {
    const index_t nb = std::min(bw, nrhs - r0);
    value_t* xp = ws_.rhs_block();
    value_t* x0 = xs.data() + static_cast<std::size_t>(r0) * n;
    blas::pack_rhs(static_cast<index_t>(n), nb, x0, static_cast<index_t>(n),
                   xp, nb);
    solve_blocked_multi(xp, nb, nb, ws_.tail().data());
    blas::unpack_rhs(static_cast<index_t>(n), nb, xp, nb, x0,
                     static_cast<index_t>(n));
  }
}

void TriSolveExecutor::solve_blocked_multi(value_t* xp, index_t nrhs,
                                           index_t ldp, value_t* tail) const {
  // VS-Block (+ VI-Prune): supernodal traversal, one pass per block, over
  // an RHS-major packed block (solve() passes x itself, one column). Each
  // reached column's diagonal part is solved with direct indexing (rows
  // inside a block are consecutive: no Li lookups), and its tail part,
  // which follows it in memory, is accumulated densely into a gather
  // buffer right after; the buffer is scattered once per block. So every
  // column of L is read front to back once. A tail term reads only x
  // values that are already final, so each x and tail entry receives its
  // terms in the same order as in a diagonal pass followed by a tail pass.
  // The RHS index is the unit-stride inner loop and never reorders a
  // column's operations, so looped solve() and solve_batch() are
  // bit-identical per column — pinned by tests/test_batch.cpp.
  const CscMatrix& l = *l_;
  const index_t* Li = l.rowind.data();
  const value_t* Lx = l.values.data();
  const index_t nblocks = plan_->options.vi_prune
                              ? static_cast<index_t>(sets_->sn_reach.size())
                              : sets_->blocks.count();
  for (index_t k = 0; k < nblocks; ++k) {
    const index_t s = plan_->options.vi_prune ? sets_->sn_reach[k] : k;
    const index_t c1 = sets_->blocks.start[s];
    const index_t c2 = sets_->blocks.start[s + 1];
    const index_t cr = plan_->options.vi_prune ? sets_->sn_first_col[k] : c1;
    const index_t tail_len = sets_->colcount[c1] - (c2 - c1);

    if (plan_->options.low_level && c2 - cr == 1 && cr == c1) {
      // Peeled single-column supernode: a straight column update, no
      // gather buffer traffic.
      const index_t p0 = l.col_begin(cr);
      const value_t piv = Lx[p0];
      value_t* xc = xp + cr * ldp;
      for (index_t r = 0; r < nrhs; ++r) xc[r] /= piv;
      for (index_t p = p0 + 1; p < l.col_end(cr); ++p) {
        const value_t lv = Lx[p];
        value_t* xi = xp + Li[p] * ldp;
        for (index_t r = 0; r < nrhs; ++r) xi[r] -= lv * xc[r];
      }
      continue;
    }

    // Column j's diagonal part: dense forward substitution, consecutive
    // targets.
    const auto diagonal = [&](index_t j) {
      const index_t p0 = l.col_begin(j);
      const value_t piv = Lx[p0];
      value_t* xj = xp + j * ldp;
      for (index_t r = 0; r < nrhs; ++r) xj[r] /= piv;
      const value_t* col = Lx + p0 + 1;
      const index_t blen = c2 - j - 1;
      for (index_t t = 0; t < blen; ++t) {
        const value_t lv = col[t];
        value_t* xrow = xp + (j + 1 + t) * ldp;
        for (index_t r = 0; r < nrhs; ++r) xrow[r] -= lv * xj[r];
      }
    };
    // Tail: tail[t] = sum_j L(tail_t, j) * x[j], accumulated densely.
    std::fill(tail, tail + static_cast<std::int64_t>(tail_len) * ldp, 0.0);
    index_t j = cr;
    if (plan_->options.low_level) {
      // Two columns at a time (register reuse / ILP — the "vectorization"
      // the VS-Block pass annotates).
      for (; j + 1 < c2; j += 2) {
        diagonal(j);
        diagonal(j + 1);
        const value_t* xa = xp + j * ldp;
        const value_t* xb = xp + (j + 1) * ldp;
        const value_t* ca = Lx + l.col_begin(j) + (c2 - j);
        const value_t* cb = Lx + l.col_begin(j + 1) + (c2 - j - 1);
        for (index_t t = 0; t < tail_len; ++t) {
          const value_t la = ca[t], lb = cb[t];
          value_t* tr = tail + static_cast<std::int64_t>(t) * ldp;
          for (index_t r = 0; r < nrhs; ++r) tr[r] += la * xa[r] + lb * xb[r];
        }
      }
    }
    for (; j < c2; ++j) {
      diagonal(j);
      const value_t* xj = xp + j * ldp;
      const value_t* cj = Lx + l.col_begin(j) + (c2 - j);
      for (index_t t = 0; t < tail_len; ++t) {
        const value_t lv = cj[t];
        value_t* tr = tail + static_cast<std::int64_t>(t) * ldp;
        for (index_t r = 0; r < nrhs; ++r) tr[r] += lv * xj[r];
      }
    }
    // One indirect scatter per block.
    const index_t* rows = Li + l.col_begin(c1) + (c2 - c1);
    for (index_t t = 0; t < tail_len; ++t) {
      const value_t* tr = tail + static_cast<std::int64_t>(t) * ldp;
      value_t* xi = xp + rows[t] * ldp;
      for (index_t r = 0; r < nrhs; ++r) xi[r] -= tr[r];
    }
  }
}

}  // namespace sympiler::core
