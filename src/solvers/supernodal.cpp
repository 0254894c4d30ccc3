#include "solvers/supernodal.h"

#include <algorithm>

#include "blas/kernels.h"
#include "sparse/ops.h"

namespace sympiler::solvers {

SupernodalLayout SupernodalLayout::build(const FactorPattern& sym,
                                         SupernodePartition partition) {
  SupernodalLayout layout;
  layout.n = sym.l_pattern.cols();
  layout.sn = std::move(partition);
  SYMPILER_CHECK(layout.sn.valid(layout.n), "layout: invalid partition");

  const index_t nsuper = layout.sn.count();
  const CscMatrix& lp = sym.l_pattern;
  layout.srow_ptr.assign(static_cast<std::size_t>(nsuper) + 1, 0);
  layout.panel_ptr.assign(static_cast<std::size_t>(nsuper) + 1, 0);
  // The rows of supernode s are its own columns plus the below-diagonal
  // pattern of its last column (every earlier column's pattern is inside
  // that set: fundamental columns share it, amalgamated ones are etree
  // descendants of the last column).
  for (index_t s = 0; s < nsuper; ++s) {
    const index_t last = layout.sn.start[s + 1] - 1;
    const index_t w = layout.sn.width(s);
    const index_t nrow = w + lp.col_end(last) - lp.col_begin(last) - 1;
    SYMPILER_CHECK(nrow >= w, "layout: supernode shorter than its width");
    layout.srow_ptr[s + 1] = layout.srow_ptr[s] + nrow;
    layout.panel_ptr[s + 1] =
        layout.panel_ptr[s] + static_cast<std::int64_t>(nrow) * w;
  }
  layout.srows.resize(static_cast<std::size_t>(layout.srow_ptr[nsuper]));
  for (index_t s = 0; s < nsuper; ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t c2 = layout.sn.start[s + 1];
    index_t* dst = layout.srows.data() + layout.srow_ptr[s];
    for (index_t j = c1; j < c2; ++j) *dst++ = j;
    std::copy(lp.rowind.begin() + lp.col_begin(c2 - 1) + 1,
              lp.rowind.begin() + lp.col_end(c2 - 1), dst);
  }
  return layout;
}

UpdateLists compute_update_lists(const SupernodalLayout& layout) {
  const index_t nsuper = layout.nsuper();
  // Simulate the cursor walk of each descendant over its row list twice:
  // pass 1 counts the (d, p1, p2) segments per target supernode, pass 2
  // writes them into the flat ptr/refs arrays — no per-supernode bucket
  // vectors, two allocations total.
  UpdateLists lists;
  lists.ptr.assign(static_cast<std::size_t>(nsuper) + 1, 0);
  for (index_t d = 0; d < nsuper; ++d) {
    const index_t* rows = layout.srows.data() + layout.srow_ptr[d];
    const index_t nrow = layout.nrows(d);
    index_t p = layout.width(d);
    while (p < nrow) {
      const index_t target = layout.sn.col_to_super[rows[p]];
      const index_t c2 = layout.sn.start[target + 1];
      while (p < nrow && rows[p] < c2) ++p;
      ++lists.ptr[target + 1];
    }
  }
  for (index_t s = 0; s < nsuper; ++s) lists.ptr[s + 1] += lists.ptr[s];
  lists.refs.resize(static_cast<std::size_t>(lists.ptr[nsuper]));
  std::vector<index_t> next(lists.ptr.begin(), lists.ptr.end() - 1);
  for (index_t d = 0; d < nsuper; ++d) {
    const index_t* rows = layout.srows.data() + layout.srow_ptr[d];
    const index_t nrow = layout.nrows(d);
    index_t p = layout.width(d);
    while (p < nrow) {
      const index_t target = layout.sn.col_to_super[rows[p]];
      const index_t c2 = layout.sn.start[target + 1];
      index_t q = p;
      while (q < nrow && rows[q] < c2) ++q;
      lists.refs[next[target]++] = {d, p, q};
      p = q;
    }
  }
  return lists;
}

void scatter_supernode(const SupernodalLayout& layout,
                       const CscMatrix& a_lower, index_t s, index_t j0,
                       index_t j1, value_t* panel, const index_t* map) {
  const index_t c1 = layout.sn.start[s];
  const index_t m = layout.nrows(s);
  std::fill(panel + static_cast<std::int64_t>(j0) * m,
            panel + static_cast<std::int64_t>(j1) * m, 0.0);
  for (index_t j = c1 + j0; j < c1 + j1; ++j) {
    value_t* col = panel + static_cast<std::int64_t>(j - c1) * m;
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p) {
      const index_t i = a_lower.rowind[p];
      if (i < j) continue;
      col[map[i]] = a_lower.values[p];
    }
  }
}

CscMatrix panels_to_csc(const SupernodalLayout& layout,
                        std::span<const value_t> panels, CscMatrix l) {
  SYMPILER_CHECK(l.rows() == layout.n && l.cols() == layout.n,
                 "panels_to_csc: pattern order");
  l.values.resize(l.rowind.size());
  // Column j's pattern is a sorted subset of its panel rows from its own
  // diagonal on, so one forward walk over the panel column finds every
  // entry; the rows it skips are explicit zeros of an amalgamated panel.
  // A row the walk cannot find means the pattern is not the layout's.
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t c2 = layout.sn.start[s + 1];
    const index_t m = layout.nrows(s);
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    const value_t* panel = panels.data() + layout.panel_ptr[s];
    for (index_t j = c1; j < c2; ++j) {
      const value_t* col = panel + static_cast<std::int64_t>(j - c1) * m;
      index_t t = j - c1;
      for (index_t p = l.col_begin(j); p < l.col_end(j); ++p) {
        while (t < m && rows[t] < l.rowind[p]) ++t;
        SYMPILER_CHECK(t < m && rows[t] == l.rowind[p],
                       "panels_to_csc: pattern row not in the panel");
        l.values[p] = col[t];
      }
    }
  }
  return l;
}

index_t max_tail_rows(const SupernodalLayout& layout) {
  index_t max_tail = 0;
  for (index_t s = 0; s < layout.nsuper(); ++s)
    max_tail = std::max(max_tail, layout.nrows(s) - layout.width(s));
  return max_tail;
}

void panel_forward_solve(const SupernodalLayout& layout,
                         std::span<const value_t> panels, std::span<value_t> x,
                         std::span<value_t> scratch) {
  panel_forward_solve_multi(layout, panels, x.data(), 1, 1, scratch.data());
}

void panel_forward_solve(const SupernodalLayout& layout,
                         std::span<const value_t> panels,
                         std::span<value_t> x) {
  std::vector<value_t> scratch(
      static_cast<std::size_t>(max_tail_rows(layout)));
  panel_forward_solve(layout, panels, x, scratch);
}

void panel_backward_solve(const SupernodalLayout& layout,
                          std::span<const value_t> panels, std::span<value_t> x,
                          std::span<value_t> scratch) {
  panel_backward_solve_multi(layout, panels, x.data(), 1, 1, scratch.data());
}

void panel_backward_solve(const SupernodalLayout& layout,
                          std::span<const value_t> panels,
                          std::span<value_t> x) {
  std::vector<value_t> scratch(
      static_cast<std::size_t>(max_tail_rows(layout)));
  panel_backward_solve(layout, panels, x, scratch);
}

void panel_forward_solve_multi(const SupernodalLayout& layout,
                               std::span<const value_t> panels, value_t* xp,
                               index_t nrhs, index_t ldp, value_t* tail) {
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t w = layout.width(s);
    const index_t m = layout.nrows(s);
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    const value_t* panel = panels.data() + layout.panel_ptr[s];
    value_t* xc = xp + static_cast<std::int64_t>(c1) * ldp;
    if (nrhs == 1)
      blas::trsv_lower(w, panel, m, xc);
    else
      blas::trsm_lower_multi(w, nrhs, panel, m, xc, ldp);
    if (m > w) {
      std::fill(tail, tail + static_cast<std::int64_t>(m - w) * ldp, 0.0);
      if (nrhs == 1)
        blas::gemv_minus(m - w, w, panel + w, m, xc, tail);
      else
        blas::gemm_minus_multi(m - w, w, nrhs, panel + w, m, xc, ldp, tail,
                               ldp);
      for (index_t t = w; t < m; ++t) {
        value_t* dst = xp + rows[t] * ldp;
        const value_t* src = tail + static_cast<std::int64_t>(t - w) * ldp;
        for (index_t r = 0; r < nrhs; ++r) dst[r] += src[r];
      }
    }
  }
}

void panel_backward_solve_multi(const SupernodalLayout& layout,
                                std::span<const value_t> panels, value_t* xp,
                                index_t nrhs, index_t ldp, value_t* tail) {
  for (index_t s = layout.nsuper() - 1; s >= 0; --s) {
    const index_t c1 = layout.sn.start[s];
    const index_t w = layout.width(s);
    const index_t m = layout.nrows(s);
    const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
    const value_t* panel = panels.data() + layout.panel_ptr[s];
    value_t* xc = xp + static_cast<std::int64_t>(c1) * ldp;
    if (m > w) {
      for (index_t t = w; t < m; ++t) {
        const value_t* src = xp + rows[t] * ldp;
        value_t* dst = tail + static_cast<std::int64_t>(t - w) * ldp;
        for (index_t r = 0; r < nrhs; ++r) dst[r] = src[r];
      }
      if (nrhs == 1)
        blas::gemv_trans_minus(m - w, w, panel + w, m, tail, xc);
      else
        blas::gemm_trans_minus_multi(m - w, w, nrhs, panel + w, m, tail, ldp,
                                     xc, ldp);
    }
    if (nrhs == 1)
      blas::trsv_lower_transpose(w, panel, m, xc);
    else
      blas::trsm_lower_transpose_multi(w, nrhs, panel, m, xc, ldp);
  }
}

SupernodalCholesky::SupernodalCholesky(const CscMatrix& a_lower,
                                       SupernodeOptions opt) {
  SymbolicFactor sym = symbolic_cholesky(a_lower);
  SupernodePartition part = amalgamate_supernodes(
      supernodes_cholesky(sym.parent, sym.colcount, opt), sym.parent,
      sym.colcount, opt);
  layout_ = SupernodalLayout::build(sym, std::move(part));
  sym_ = std::move(static_cast<FactorPattern&>(sym));
  sym_.l_pattern.values = {};  // factor_csc() writes the values
  panels_.resize(static_cast<std::size_t>(layout_.total_values()));
}

void SupernodalCholesky::factorize(const CscMatrix& a_lower) {
  // The paper (section 4.2) notes that the libraries' numeric phase still
  // computes the transpose of A (to reach upper-triangle entries) and
  // performs reach-style bookkeeping. We reproduce both: the transpose
  // below and the dynamic descendant linked lists in the main loop.
  const CscMatrix upper = transpose(a_lower);
  (void)upper;  // accessed only for parity with the library's numeric cost

  const index_t nsuper = layout_.nsuper();

  // Dynamic update discovery: head[s] is a linked list of descendant
  // supernodes whose next un-consumed row block lands in s; cursor[d] is
  // the position of that block in d's row list.
  std::vector<index_t> head(static_cast<std::size_t>(nsuper), -1);
  std::vector<index_t> list_next(static_cast<std::size_t>(nsuper), -1);
  std::vector<index_t> cursor(static_cast<std::size_t>(nsuper), 0);
  std::vector<index_t> map(static_cast<std::size_t>(layout_.n), 0);

  // Workspace for gather-GEMM-scatter updates: at most max(m) x max(w).
  index_t max_m = 0, max_w = 0;
  for (index_t s = 0; s < nsuper; ++s) {
    max_m = std::max(max_m, layout_.nrows(s));
    max_w = std::max(max_w, layout_.width(s));
  }
  std::vector<value_t> work(static_cast<std::size_t>(max_m) * max_w);

  for (index_t s = 0; s < nsuper; ++s) {
    const index_t c1 = layout_.sn.start[s];
    const index_t c2 = layout_.sn.start[s + 1];
    const index_t w = layout_.width(s);
    const index_t m = layout_.nrows(s);
    const index_t* rows = layout_.srows.data() + layout_.srow_ptr[s];
    value_t* panel = panels_.data() + layout_.panel_ptr[s];
    for (index_t t = 0; t < m; ++t) map[rows[t]] = t;
    // Like CHOLMOD's supernodal numeric phase, clear and scatter A into
    // this supernode's panel inside the main loop.
    scatter_supernode(layout_, a_lower, s, 0, w, panel, map.data());

    // Drain the dynamic descendant list of s.
    index_t d = head[s];
    head[s] = -1;
    while (d != -1) {
      const index_t d_next = list_next[d];
      const index_t* drows = layout_.srows.data() + layout_.srow_ptr[d];
      const index_t dm = layout_.nrows(d);
      const index_t dw = layout_.width(d);
      const value_t* dpanel = panels_.data() + layout_.panel_ptr[d];
      const index_t p1 = cursor[d];
      index_t p2 = p1;
      while (p2 < dm && drows[p2] < c2) ++p2;
      // Update block: C(mu x nu) = Ld[p1..dm) * Ld[p1..p2)^T on its lower
      // trapezoid, the rows the scatter reads (CHOLMOD: dsyrk + dgemm).
      const index_t mu = dm - p1;
      const index_t nu = p2 - p1;
      value_t* cwork = work.data();
      std::fill(cwork, cwork + static_cast<std::int64_t>(mu) * nu, 0.0);
      blas::syrk_trapezoid_minus(mu, nu, dw, dpanel + p1, dm, cwork, mu);
      // Scatter-subtract: C is "minus the update", so add it in.
      for (index_t cjj = 0; cjj < nu; ++cjj) {
        const index_t gcol = drows[p1 + cjj];  // in [c1, c2)
        value_t* dst = panel + static_cast<std::int64_t>(gcol - c1) * m;
        const value_t* src = cwork + static_cast<std::int64_t>(cjj) * mu;
        for (index_t r = cjj; r < mu; ++r) dst[map[drows[p1 + r]]] += src[r];
      }
      // Re-queue d for its next target supernode.
      if (p2 < dm) {
        cursor[d] = p2;
        const index_t target = layout_.sn.col_to_super[drows[p2]];
        list_next[d] = head[target];
        head[target] = d;
      }
      d = d_next;
    }

    // Dense factorization of the diagonal block + panel solve.
    blas::potrf_lower(w, panel, m);
    if (m > w)
      blas::trsm_right_lower_trans(m - w, w, panel, m, panel + w, m);

    // Queue s for its first ancestor target.
    if (m > w) {
      cursor[s] = w;
      const index_t target = layout_.sn.col_to_super[rows[w]];
      list_next[s] = head[target];
      head[target] = s;
    }
    (void)c1;
  }
  factorized_ = true;
}

void SupernodalCholesky::solve(std::span<value_t> bx) const {
  SYMPILER_CHECK(factorized_, "solve() before factorize()");
  SYMPILER_CHECK(static_cast<index_t>(bx.size()) == layout_.n,
                 "solve: size mismatch");
  panel_forward_solve(layout_, panels_, bx);
  panel_backward_solve(layout_, panels_, bx);
}

}  // namespace sympiler::solvers
