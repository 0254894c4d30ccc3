#include "core/supernode_body.h"

#include <algorithm>
#include <string>

#include "blas/kernels.h"
#include "util/fault.h"

namespace sympiler::core {

void assemble_supernode_columns(const CholeskySets& sets,
                                const CscMatrix& a_lower, index_t s,
                                index_t j0, index_t j1, value_t* panels,
                                index_t* map, value_t* work) {
  const solvers::SupernodalLayout& layout = sets.layout;
  const index_t c1 = layout.sn.start[s];
  const index_t m = layout.nrows(s);
  const index_t* rows = layout.srows.data() + layout.srow_ptr[s];
  value_t* panel = panels + layout.panel_ptr[s];
  for (index_t t = 0; t < m; ++t) map[rows[t]] = t;
  // A enters the panel here, through the row map just built: left-looking
  // updates only target the supernode being factored, so every entry
  // still starts from A's value before its first update.
  solvers::scatter_supernode(layout, a_lower, s, j0, j1, panel, map);

  // Static update schedule — no dynamic discovery (fully decoupled).
  for (index_t u = sets.updates.ptr[s]; u < sets.updates.ptr[s + 1]; ++u) {
    const solvers::UpdateRef ref = sets.updates.refs[u];
    const index_t* drows = layout.srows.data() + layout.srow_ptr[ref.d];
    const index_t dm = layout.nrows(ref.d);
    const value_t* dpanel = panels + layout.panel_ptr[ref.d];
    const index_t mu = dm - ref.p1;
    const index_t nu = ref.p2 - ref.p1;
    // The update's target columns drows[p1..p2) ascend; [lo, hi) of them
    // fall in this call's column range.
    const index_t* tcols = drows + ref.p1;
    const index_t lo = static_cast<index_t>(
        std::lower_bound(tcols, tcols + nu, c1 + j0) - tcols);
    const index_t hi = static_cast<index_t>(
        std::lower_bound(tcols + lo, tcols + nu, c1 + j1) - tcols);
    if (lo == hi) continue;
    // Tile rows [lo, mu) x target columns [lo, hi), computed only at or
    // below each target column (the rows the scatter reads): every tile
    // entry is its own ascending-k reduction, so this trapezoid holds the
    // bits the full mu x nu tile would.
    const index_t mt = mu - lo;
    const index_t nt = hi - lo;
    std::fill(work, work + static_cast<std::int64_t>(mt) * nt, 0.0);
    blas::syrk_trapezoid_minus(mt, nt, layout.width(ref.d),
                               dpanel + ref.p1 + lo, dm, work, mt);
    for (index_t cj = lo; cj < hi; ++cj) {
      value_t* dst = panel + static_cast<std::int64_t>(tcols[cj] - c1) * m;
      const value_t* src = work + static_cast<std::int64_t>(cj - lo) * mt;
      for (index_t r = cj; r < mu; ++r)
        dst[map[drows[ref.p1 + r]]] += src[r - lo];
    }
  }
}

namespace {

/// Factor the first `rows` rows of supernode s's panel with one
/// potrf_panel call. The kPivot fault point fires here, once per
/// supernode; a non-positive pivot is re-anchored at the supernode's
/// first column.
void factor_panel_rows(const solvers::SupernodalLayout& layout, index_t s,
                       index_t rows, value_t* panels) {
  const index_t c1 = layout.sn.start[s];
  value_t* panel = panels + layout.panel_ptr[s];
  if (SYMPILER_FAULT_POINT(util::FaultSite::kPivot))
    throw numerical_error(
        "cholesky: injected pivot failure (fault site pivot, supernodal)", c1,
        panel[0]);
  try {
    blas::potrf_panel(rows, layout.width(s), panel, layout.nrows(s));
  } catch (const numerical_error& e) {
    // The dense kernel knows only the local column; re-anchor at the
    // supernode's global first column.
    throw numerical_error(std::string(e.what()) +
                              " (supernode starting at column " +
                              std::to_string(c1) + ")",
                          c1, panel[0]);
  }
}

}  // namespace

void factor_supernode_diagonal(const solvers::SupernodalLayout& layout,
                               index_t s, value_t* panels) {
  factor_panel_rows(layout, s, layout.width(s), panels);
}

void solve_supernode_rows(const solvers::SupernodalLayout& layout, index_t s,
                          index_t r0, index_t r1, value_t* panels) {
  if (r1 <= r0) return;
  const index_t w = layout.width(s);
  const index_t m = layout.nrows(s);
  value_t* panel = panels + layout.panel_ptr[s];
  blas::trsm_right_lower_trans(r1 - r0, w, panel, m, panel + w + r0, m);
}

void factor_supernode(const CholeskySets& sets, const CscMatrix& a_lower,
                      index_t s, value_t* panels, index_t* map,
                      value_t* work) {
  const solvers::SupernodalLayout& layout = sets.layout;
  assemble_supernode_columns(sets, a_lower, s, 0, layout.width(s), panels, map,
                             work);
  factor_panel_rows(layout, s, layout.nrows(s), panels);
}

}  // namespace sympiler::core
