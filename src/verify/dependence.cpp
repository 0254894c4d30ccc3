// kStructure + kDependence passes: inspection-set internal consistency,
// and legality of the aggregate schedule against the dependence relation
// recomputed from those sets.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/supernodes.h"
#include "verify/internal.h"

namespace sympiler::verify::detail {

namespace {

/// xorshift-multiply mix of an index pair, for order-insensitive multiset
/// comparison of (row, column) sets via commutative accumulation. The
/// nonlinearity matters: a linear combination would miss entries swapped
/// across rows, the exact shape of a plausible transpose bug. One multiply
/// keeps the hot verification loops near memory speed.
std::uint64_t mix_pair(index_t i, index_t j) {
  std::uint64_t x =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
      static_cast<std::uint32_t>(j);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return x;
}

// The verifier's hot loops are branchless single-pass integer sweeps, but
// the 64-bit multiply in mix_pair only vectorizes from AVX2 up, and only
// AVX-512DQ (x86-64-v4) has a native 64-bit vector multiply (vpmullq) —
// worth another ~1.4x on the pattern hashes. Following the cpuid-gated
// ISA tiering of blas/bundle_scalar.cpp, clone just these helpers per
// ISA — ifunc dispatch picks the widest supported tier at load time and
// everything else stays baseline x86-64.
#if defined(__x86_64__)
#define SYMPILER_VERIFY_ISA \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define SYMPILER_VERIFY_ISA
#endif

/// Count adjacent pairs of v that are non-ascending or reach `bound`.
/// Callers exempt the legal boundary pairs (column/panel/row starts) and
/// rescan with a per-element diagnostic only when the count is nonzero.
SYMPILER_VERIFY_ISA std::uint64_t pair_violations(
    const std::vector<index_t>& v, index_t bound) {
  std::uint64_t viol = 0;
  for (std::size_t p = 1; p < v.size(); ++p)
    viol += static_cast<std::uint64_t>(v[p] <= v[p - 1]) +
            static_cast<std::uint64_t>(v[p] >= bound);
  return viol;
}

/// Commutative pair hash over the off-diagonal (row, column) entries of a
/// shape-validated CSC pattern.
SYMPILER_VERIFY_ISA std::uint64_t hash_offdiag(
    const std::vector<index_t>& colptr, const std::vector<index_t>& rowind,
    index_t n) {
  std::uint64_t acc = 0;
  for (index_t j = 0; j < n; ++j)
    for (index_t p = colptr[j] + 1; p < colptr[j + 1]; ++p)
      acc += mix_pair(rowind[p], j);
  return acc;
}

/// Commutative pair hash over (row, column) row-pattern entries.
SYMPILER_VERIFY_ISA std::uint64_t hash_rowpat(
    const std::vector<index_t>& rp, const std::vector<index_t>& rows,
    index_t n) {
  std::uint64_t acc = 0;
  for (index_t i = 0; i < n; ++i)
    for (index_t p = rp[i]; p < rp[i + 1]; ++p)
      acc += mix_pair(i, rows[p]);
  return acc;
}

/// Validate a SupernodePartition tiles [0, n) and that col_to_super is the
/// inverse of start (valid() checks only the tiling).
bool check_partition(Checker& c, const SupernodePartition& sn, index_t n,
                     const char* check) {
  if (sn.start.empty() || sn.start.front() != 0 || sn.start.back() != n ||
      static_cast<index_t>(sn.col_to_super.size()) != n)
    return c.fail(check, -1, cat("partition must tile [0, ", n, ")"));
  for (index_t s = 0; s + 1 < static_cast<index_t>(sn.start.size()); ++s) {
    if (sn.start[s + 1] <= sn.start[s])
      return c.fail(check, s, "empty or decreasing supernode");
    for (index_t j = sn.start[s]; j < sn.start[s + 1]; ++j)
      if (sn.col_to_super[j] != s)
        return c.fail(check, j,
                      cat("col_to_super[", j, "] = ", sn.col_to_super[j],
                          ", owning supernode is ", s));
  }
  return true;
}

/// Validate the CSC invariants of a factor pattern: monotone colptr,
/// diagonal-first sorted in-bounds columns. When `offdiag_hash` is given,
/// also compute the commutative pair hash of every off-diagonal entry (for
/// the rowpat transpose check). Pass `check_sorted = false` when a later
/// check compares every column against an independently-validated sorted
/// row list (the supernodal panel compare), which subsumes the sweep.
bool check_lower_pattern(Checker& c, const CscMatrix& lp, const char* check,
                         std::uint64_t* offdiag_hash = nullptr,
                         bool check_sorted = true) {
  const index_t n = lp.cols();
  if (static_cast<index_t>(lp.colptr.size()) != n + 1 ||
      lp.colptr.front() != 0 ||
      static_cast<index_t>(lp.rowind.size()) != lp.colptr.back())
    return c.fail(check, -1, "colptr/rowind sizes inconsistent");
  for (index_t j = 0; j < n; ++j) {
    const index_t b = lp.colptr[j], e = lp.colptr[j + 1];
    if (e < b) return c.fail(check, j, "colptr decreases");
    if (e == b || lp.rowind[b] != j)
      return c.fail(check, j, "diagonal missing or not first in column");
  }
  const auto& ri = lp.rowind;
  if (check_sorted) {
    // Two-tier sortedness: the branchless sweep with the n-1
    // column-boundary pairs exempted; the per-element scan with a useful
    // message runs only when the sweep says something is wrong. A negative
    // interior entry is always <= its predecessor somewhere down the chain
    // to the (validated) diagonal, so the two sweep comparisons cover
    // bounds as well.
    std::uint64_t viol = pair_violations(ri, n);
    for (index_t j = 1; j < n; ++j) {
      const index_t b = lp.colptr[j];
      viol -= static_cast<std::uint64_t>(ri[b] <= ri[b - 1]);
    }
    if (viol != 0) {
      for (index_t j = 0; j < n; ++j)
        for (index_t p = lp.colptr[j] + 1; p < lp.colptr[j + 1]; ++p)
          if (ri[p] <= ri[p - 1] || ri[p] >= n)
            return c.fail(
                check, j,
                cat("row indices not strictly increasing in-bounds ",
                    "at position ", p));
      return c.fail(check, -1,
                    "row indices not strictly increasing in-bounds");
    }
  }
  if (offdiag_hash != nullptr) *offdiag_hash = hash_offdiag(lp.colptr, ri, n);
  return true;
}

/// Internal consistency of a SupernodalLayout (partition, row lists, panel
/// offsets). Does not touch the L pattern.
/// `panels_bound_to_l` marks that the caller will compare every panel's
/// row list against the verified L pattern column-by-column (the
/// supernode-invariant check). That compare, together with L's
/// diagonal-first invariant, already implies rows >= width and that the
/// first width(s) panel rows are the own columns, so those per-supernode
/// checks are skipped here — they are the layout pass's hottest loop on
/// meshes with thousands of narrow supernodes.
bool check_layout(Checker& c, const solvers::SupernodalLayout& layout,
                  index_t n, bool panels_bound_to_l) {
  if (layout.n != n)
    return c.fail("structure.layout", -1,
                  cat("layout order ", layout.n, " != pattern order ", n));
  if (!check_partition(c, layout.sn, n, "structure.layout")) return false;
  const index_t nsuper = layout.sn.count();
  if (static_cast<index_t>(layout.srow_ptr.size()) != nsuper + 1 ||
      layout.srow_ptr.front() != 0 ||
      static_cast<index_t>(layout.srows.size()) != layout.srow_ptr.back() ||
      static_cast<index_t>(layout.panel_ptr.size()) != nsuper + 1 ||
      layout.panel_ptr.front() != 0)
    return c.fail("structure.layout", -1,
                  "srow_ptr/srows/panel_ptr sizes inconsistent");
  for (index_t s = 0; s < nsuper; ++s) {
    if (layout.srow_ptr[s + 1] < layout.srow_ptr[s])
      return c.fail("structure.layout", s, "srow_ptr decreases");
    const index_t rows = layout.srow_ptr[s + 1] - layout.srow_ptr[s];
    const index_t w = layout.width(s);
    if (!panels_bound_to_l) {
      if (rows < w)
        return c.fail("structure.layout", s,
                      cat("panel has ", rows, " rows < width ", w));
      const index_t base = layout.srow_ptr[s];
      for (index_t u = 0; u < w; ++u)
        if (layout.srows[base + u] != layout.sn.start[s] + u)
          return c.fail("structure.layout", s,
                        "first width(s) panel rows must be the own columns");
    }
    if (layout.panel_ptr[s + 1] - layout.panel_ptr[s] !=
        static_cast<std::int64_t>(rows) * w)
      return c.fail("structure.layout", s,
                    cat("panel extent != nrows * width (", rows, " x ", w,
                        ")"));
  }
  // Two-tier tail check mirroring check_lower_pattern: branchless
  // ascending/bounds sweep over all panel rows with the panel-boundary
  // pairs exempted; the per-row diagnostic scan runs only on violation.
  // The first rows of every panel are its own columns (verified above,
  // or pinned through L's diagonal-first invariant by the caller's panel
  // compare when panels_bound_to_l), so they anchor bounds from below.
  const auto& sr = layout.srows;
  std::uint64_t viol = sr.empty() ? 0 : pair_violations(sr, n);
  for (index_t s = 1; s < nsuper; ++s) {
    const index_t b = layout.srow_ptr[s];
    viol -= static_cast<std::uint64_t>(sr[b] <= sr[b - 1]);
  }
  if (viol != 0) {
    for (index_t s = 0; s < nsuper; ++s) {
      const index_t base = layout.srow_ptr[s];
      const index_t rows = layout.srow_ptr[s + 1] - base;
      for (index_t u = 0; u < rows; ++u) {
        const index_t r = sr[base + u];
        if (r < 0 || r >= n)
          return c.fail("structure.layout", s,
                        cat("panel row ", r, " out of range"));
        if (u > 0 && r <= sr[base + u - 1])
          return c.fail("structure.layout", s,
                        "panel rows not strictly increasing");
      }
    }
    return c.fail("structure.layout", -1, "panel rows inconsistent");
  }
  return true;
}

/// Static update schedule points at real descendants and real target
/// columns, sources strictly ascending per target.
bool check_updates(Checker& c, const solvers::SupernodalLayout& layout,
                   const solvers::UpdateLists& updates) {
  const index_t nsuper = layout.nsuper();
  if (static_cast<index_t>(updates.ptr.size()) != nsuper + 1 ||
      updates.ptr.front() != 0 ||
      static_cast<index_t>(updates.refs.size()) != updates.ptr.back())
    return c.fail("structure.updates", -1, "ptr/refs sizes inconsistent");
  for (index_t s = 0; s < nsuper; ++s) {
    if (updates.ptr[s + 1] < updates.ptr[s])
      return c.fail("structure.updates", s, "ptr decreases");
    index_t prev_d = -1;
    const index_t c1 = layout.sn.start[s];
    const index_t c2 = layout.sn.start[s + 1];
    for (index_t q = updates.ptr[s]; q < updates.ptr[s + 1]; ++q) {
      const solvers::UpdateRef& ref = updates.refs[q];
      if (ref.d < 0 || ref.d >= s)
        return c.fail("structure.updates", s,
                      cat("descendant ", ref.d, " is not an earlier ",
                          "supernode"));
      if (ref.d <= prev_d)
        return c.fail("structure.updates", s,
                      cat("descendants not strictly ascending (", prev_d,
                          " then ", ref.d, ")"));
      prev_d = ref.d;
      const index_t dw = layout.width(ref.d);
      const index_t drows = layout.nrows(ref.d);
      if (ref.p1 < dw || ref.p2 < ref.p1 || ref.p2 > drows)
        return c.fail("structure.updates", s,
                      cat("row window [", ref.p1, ", ", ref.p2,
                          ") outside descendant ", ref.d, "'s tail"));
      // Panel rows are strictly ascending (check_layout runs first), so
      // window containment in the target's columns reduces to the two
      // endpoints — O(1) per ref instead of O(window).
      const index_t dbase = layout.srow_ptr[ref.d];
      if (ref.p2 > ref.p1 &&
          (layout.srows[dbase + ref.p1] < c1 ||
           layout.srows[dbase + ref.p2 - 1] >= c2))
        return c.fail("structure.updates", s,
                      cat("descendant ", ref.d, " rows [",
                          layout.srows[dbase + ref.p1], ", ",
                          layout.srows[dbase + ref.p2 - 1],
                          "] outside target columns [", c1, ", ", c2, ")"));
    }
  }
  return true;
}

/// A parallel path executes nothing but its aggregate schedule, so a plan
/// on that path without one would silently skip every item.
bool require_schedule(Checker& c, const parallel::AggregateSchedule& agg) {
  c.note();
  if (!agg.empty()) return true;
  return c.fail("dep.missing-schedule", -1,
                "parallel plan carries no aggregate schedule");
}

}  // namespace

// ---------------------------------------------------------------- Cholesky

void check_structure(Report& report, const core::CholeskyPlan& plan) {
  Checker c(report, Pass::kStructure);
  const CscMatrix& lp = plan.sets.sym.l_pattern;
  const index_t n = lp.cols();

  c.note();
  std::uint64_t offdiag_hash = 0;
  const bool has_layout = plan.sets.layout.n != 0;
  const bool lp_ok = check_lower_pattern(
      c, lp, "structure.l-pattern",
      plan.sets.rowpat_ptr.empty() ? nullptr : &offdiag_hash,
      /*check_sorted=*/!has_layout);

  // Simplicial prune-sets: rowpat must be exactly the off-diagonal CSR
  // transpose of the L pattern, rows in ascending-column (elimination)
  // order. Checked with streaming passes only (a literal cursor replay is
  // one random access per nonzero — measurably the verifier's hottest
  // loop on large factors): per-row entries strictly ascending in [0, i),
  // total count equal to the off-diagonal count, and a commutative
  // per-pair hash over both sides equal. Count + multiset equality +
  // per-row ordering pin the exact CSR transpose.
  if (!plan.sets.rowpat_ptr.empty() && lp_ok) {
    c.note();
    const auto& rp = plan.sets.rowpat_ptr;
    const auto& rows = plan.sets.rowpat;
    if (static_cast<index_t>(rp.size()) != n + 1 || rp.front() != 0 ||
        static_cast<index_t>(rows.size()) != rp.back()) {
      c.fail("structure.rowpat", -1, "rowpat_ptr/rowpat sizes inconsistent");
    } else if (rp.back() != lp.colptr.back() - n) {
      c.fail("structure.rowpat", -1,
             cat("rowpat lists ", rp.back(), " updates, the pattern has ",
                 lp.colptr.back() - n, " off-diagonal entries"));
    } else {
      bool ok = true;
      for (index_t i = 0; i < n && ok; ++i)
        if (rp[i + 1] < rp[i])
          ok = c.fail("structure.rowpat", i, "rowpat_ptr decreases");
      if (ok) {
        // Ascending/range two-tier: the global pair sweep plus one O(1)
        // fix-up per row (exempt the row-boundary pair; bound the first
        // entry below by 0 and the last by i — with interior ascending
        // that brackets the whole row into [0, i)).
        std::uint64_t viol = rows.empty() ? 0 : pair_violations(rows, n);
        for (index_t i = 0; i < n; ++i) {
          const index_t b = rp[i], e = rp[i + 1];
          if (b == e) continue;
          if (b > 0)
            viol -= static_cast<std::uint64_t>(rows[b] <= rows[b - 1]);
          viol += static_cast<std::uint64_t>(rows[b] < 0) +
                  static_cast<std::uint64_t>(rows[e - 1] >= i);
        }
        if (viol != 0) {
          for (index_t i = 0; i < n && ok; ++i) {
            index_t prev = -1;
            for (index_t p = rp[i]; p < rp[i + 1] && ok; ++p) {
              const index_t j = rows[p];
              if (j <= prev || j >= i)
                ok = c.fail("structure.rowpat", i,
                            cat("row pattern of row ", i, " entry ", j,
                                " not strictly ascending in [0, ", i, ")"));
              prev = j;
            }
          }
          if (ok)
            ok = c.fail("structure.rowpat", -1,
                        "row pattern entries inconsistent");
        }
        if (ok && hash_rowpat(rp, rows, n) != offdiag_hash)
          c.fail("structure.rowpat", -1,
                 "row patterns are not the transpose of the L pattern");
      }
    }
  }

  bool layout_ok = false;
  if (has_layout) {
    c.note();
    layout_ok = check_layout(c, plan.sets.layout, n,
                             /*panels_bound_to_l=*/lp_ok);
    if (layout_ok && lp_ok) {
      // Supernodal invariant, bound to the layout: a supernode's panel
      // rows are its own columns followed by the below-diagonal pattern of
      // its last column, and every other column's pattern lies inside the
      // panel rows from its own diagonal on (an amalgamated panel stores
      // the rows a column lacks as explicit zeros). So the last column
      // must equal its suffix exactly, and each earlier column must start
      // at its own panel row and be found, in order, in the rows after it.
      // With L's diagonal-first invariant this pins the srows content to
      // the L pattern.
      c.note();
      const solvers::SupernodalLayout& layout = plan.sets.layout;
      const index_t* sr = layout.srows.data();
      bool sn_ok = true;
      for (index_t s = 0; s < layout.nsuper() && sn_ok; ++s) {
        const index_t c1 = layout.sn.start[s];
        const index_t c2 = layout.sn.start[s + 1];
        const index_t base = layout.srow_ptr[s];
        const index_t end = layout.srow_ptr[s + 1];
        for (index_t j = c1; j < c2 && sn_ok; ++j) {
          const index_t b = lp.colptr[j];
          const index_t e = lp.colptr[j + 1];
          index_t q = base + (j - c1);
          bool inside;
          if (j == c2 - 1) {
            inside = e - b == end - q &&
                     std::equal(lp.rowind.begin() + b,
                                lp.rowind.begin() + e, sr + q);
          } else {
            inside = q < end && sr[q] == lp.rowind[b];
            for (index_t p = b + 1; p < e && inside; ++p) {
              ++q;
              while (q < end && sr[q] < lp.rowind[p]) ++q;
              inside = q < end && sr[q] == lp.rowind[p];
            }
          }
          if (!inside)
            sn_ok = c.fail(
                "structure.supernode-invariant", j,
                cat("column ", j, " pattern is not ",
                    j == c2 - 1 ? "the suffix" : "inside the suffix",
                    " of supernode ", s, "'s panel rows"));
        }
      }
    }
  }
  if (layout_ok && !plan.sets.updates.ptr.empty()) {
    c.note();
    check_updates(c, plan.sets.layout, plan.sets.updates);
  }
}

void check_dependence(Report& report, const core::CholeskyPlan& plan) {
  Checker c(report, Pass::kDependence);
  if (plan.path != core::ExecutionPath::ParallelSupernodal) return;

  const solvers::SupernodalLayout& layout = plan.sets.layout;
  c.note();
  if (layout.n == 0 || plan.sets.updates.ptr.empty()) {
    c.fail("dep.missing-sets", -1,
           "scheduled Cholesky plan carries no layout/update sets");
    return;
  }
  const index_t nsuper = layout.nsuper();
  if (static_cast<index_t>(plan.sets.updates.ptr.size()) != nsuper + 1 ||
      static_cast<index_t>(plan.sets.updates.refs.size()) !=
          plan.sets.updates.ptr.back()) {
    c.fail("dep.missing-sets", -1, "update lists inconsistent with layout");
    return;
  }
  if (!require_schedule(c, plan.agg)) return;

  const ItemOrder order = check_agg_schedule(c, plan.agg, nsuper);
  c.note();
  if (plan.agg.bundles() > 0)
    c.fail("agg.bundle-unsupported", -1,
           "supernodal coarsening is chain-only; no bundle kernels exist "
           "for supernode panels");
  if (!order.usable) return;

  // Every update edge d -> s must complete strictly before its target
  // starts: an earlier barrier level, or earlier in the same chain.
  c.note();
  bool ok = true;
  for (index_t s = 0; s < nsuper && ok; ++s) {
    for (index_t q = plan.sets.updates.ptr[s];
         q < plan.sets.updates.ptr[s + 1] && ok; ++q) {
      const index_t d = plan.sets.updates.refs[q].d;
      if (d < 0 || d >= nsuper) continue;  // structure pass reports this
      if (!order.before(d, s))
        ok = c.fail("dep.update-edge-agg", s,
                    cat("descendant ", d, " (level ", order.level[d],
                        ") does not complete before target ", s, " (level ",
                        order.level[s], ")"));
    }
  }
  // Converse direction, from the layout instead of the update lists: the
  // owner of every below-diagonal panel row consumes s's tail, so it must
  // start strictly after s — catches a deleted update ref as well as a
  // mis-levelled supernode.
  c.note();
  ok = true;
  for (index_t s = 0; s < nsuper && ok; ++s) {
    const index_t base = layout.srow_ptr[s];
    const index_t w = layout.width(s);
    const index_t rows = layout.nrows(s);
    for (index_t u = w; u < rows && ok; ++u) {
      const index_t r = layout.srows[base + u];
      if (r < 0 || r >= layout.n) continue;  // structure pass reports this
      const index_t owner = layout.sn.col_to_super[r];
      if (owner < 0 || owner >= nsuper || owner == s) continue;
      if (!order.before(s, owner))
        ok = c.fail("dep.row-owner-agg", s,
                    cat("tail row ", r, "'s owner ", owner, " (level ",
                        order.level[owner],
                        ") does not start after producer ", s, " (level ",
                        order.level[s], ")"));
    }
  }
}

// ---------------------------------------------------------------- TriSolve

void check_structure(Report& report, const core::TriSolvePlan& plan,
                     const CscMatrix& l, std::span<const index_t> beta) {
  Checker c(report, Pass::kStructure);
  const index_t n = l.cols();
  const auto& sets = plan.sets;

  // Closure of beta under the DG_L successor relation — the reference the
  // reach and supernode prune-sets are checked against.
  std::vector<std::uint8_t> closed(static_cast<std::size_t>(n), 0);
  index_t closure_count = 0;
  {
    std::vector<index_t> stack;
    stack.reserve(beta.size());
    for (const index_t b : beta)
      if (b >= 0 && b < n) stack.push_back(b);
    while (!stack.empty()) {
      const index_t j = stack.back();
      stack.pop_back();
      if (closed[j]) continue;
      closed[j] = 1;
      ++closure_count;
      for (index_t p = l.col_begin(j); p < l.col_end(j); ++p) {
        const index_t i = l.rowind[p];
        if (i > j && i < n && !closed[i]) stack.push_back(i);
      }
    }
  }

  if (!sets.reach.empty()) {
    c.note();
    std::vector<index_t> pos(static_cast<std::size_t>(n), -1);
    bool ok = true;
    for (index_t k = 0; k < static_cast<index_t>(sets.reach.size()); ++k) {
      const index_t j = sets.reach[k];
      if (j < 0 || j >= n)
        ok = c.fail("structure.reach", j, "reach column out of range");
      else if (pos[j] >= 0)
        ok = c.fail("structure.reach", j,
                    cat("column appears twice (positions ", pos[j], " and ",
                        k, ")"));
      else
        pos[j] = k;
      if (!ok) break;
    }
    if (ok) {
      // Topological and closed: every DG_L successor of a reach member is
      // itself in the reach, at a strictly later position.
      c.note();
      for (index_t k = 0; k < static_cast<index_t>(sets.reach.size()) && ok;
           ++k) {
        const index_t j = sets.reach[k];
        for (index_t p = l.col_begin(j); p < l.col_end(j) && ok; ++p) {
          const index_t i = l.rowind[p];
          if (i <= j || i >= n) continue;
          if (pos[i] < 0)
            ok = c.fail("structure.reach-closure", j,
                        cat("successor ", i, " of reach column ", j,
                            " is not in the reach"));
          else if (pos[i] <= k)
            ok = c.fail("structure.reach-topo", j,
                        cat("successor ", i, " (position ", pos[i],
                            ") scheduled before column ", j, " (position ",
                            k, ")"));
        }
      }
      // Exactly Reach_L(beta): beta is covered, and nothing outside the
      // closure rides along.
      c.note();
      for (const index_t b : beta) {
        if (b >= 0 && b < n && pos[b] < 0) {
          ok = c.fail("structure.reach-beta", b,
                      cat("RHS pattern column ", b, " missing from reach"));
          break;
        }
      }
      if (ok &&
          static_cast<index_t>(sets.reach.size()) != closure_count)
        c.fail("structure.reach-minimal", -1,
               cat("reach holds ", sets.reach.size(), " columns, Reach_L(",
                   "beta) has ", closure_count));
    }
  }

  const bool has_blocks = !sets.blocks.start.empty();
  bool blocks_ok = false;
  if (has_blocks) {
    c.note();
    blocks_ok = check_partition(c, sets.blocks, n, "structure.blocks");
    if (blocks_ok && !sets.colcount.empty()) {
      c.note();
      if (static_cast<index_t>(sets.colcount.size()) != n) {
        c.fail("structure.colcount", -1, "colcount size != n");
      } else {
        for (index_t j = 0; j < n; ++j) {
          if (sets.colcount[j] != l.col_end(j) - l.col_begin(j)) {
            c.fail("structure.colcount", j,
                   cat("colcount ", sets.colcount[j], " != column extent ",
                       l.col_end(j) - l.col_begin(j)));
            break;
          }
        }
      }
    }
    if (blocks_ok && plan.path == core::ExecutionPath::BlockedTriSolve) {
      c.note();
      if (!supernodes_consistent(sets.blocks, l))
        c.fail("structure.supernode-invariant", -1,
               "block-set violates the supernodal invariant against L");
    }
  }

  if (!sets.sn_reach.empty() && blocks_ok) {
    c.note();
    const index_t nsuper = sets.blocks.count();
    bool ok = true;
    if (sets.sn_first_col.size() != sets.sn_reach.size())
      ok = c.fail("structure.sn-reach", -1,
                  "sn_reach/sn_first_col sizes differ");
    for (index_t k = 0; k < static_cast<index_t>(sets.sn_reach.size()) && ok;
         ++k) {
      const index_t s = sets.sn_reach[k];
      if (s < 0 || s >= nsuper)
        ok = c.fail("structure.sn-reach", s, "supernode id out of range");
      else if (k > 0 && s <= sets.sn_reach[k - 1])
        ok = c.fail("structure.sn-reach", s,
                    "supernode prune-set not strictly ascending");
      else if (sets.sn_first_col[k] < sets.blocks.start[s] ||
               sets.sn_first_col[k] >= sets.blocks.start[s + 1])
        ok = c.fail("structure.sn-reach", s,
                    cat("first reached column ", sets.sn_first_col[k],
                        " outside supernode's columns"));
    }
  }

  // The blocked pruned executor visits exactly the supernode suffixes in
  // sn_reach — every column of Reach_L(beta) must be covered or the solve
  // silently skips updates.
  if (plan.path == core::ExecutionPath::BlockedTriSolve &&
      plan.options.vi_prune && blocks_ok) {
    c.note();
    for (index_t j = 0; j < n; ++j) {
      if (!closed[j]) continue;
      const index_t s = sets.blocks.col_to_super[j];
      const auto it =
          std::lower_bound(sets.sn_reach.begin(), sets.sn_reach.end(), s);
      const bool covered =
          it != sets.sn_reach.end() && *it == s &&
          sets.sn_first_col[it - sets.sn_reach.begin()] <= j;
      if (!covered) {
        c.fail("structure.snreach-coverage", j,
               cat("column ", j, " of Reach_L(beta) not covered by the ",
                   "supernode prune-set"));
        break;
      }
    }
  }
}

void check_dependence(Report& report, const core::TriSolvePlan& plan,
                      const CscMatrix& l) {
  Checker c(report, Pass::kDependence);
  if (plan.path != core::ExecutionPath::ParallelTriSolve) return;
  if (!require_schedule(c, plan.agg)) return;

  const index_t n = l.cols();
  const ItemOrder order = check_agg_schedule(c, plan.agg, n);
  if (!order.usable) return;

  // Every DG_L edge j -> i (L(i, j) != 0, i > j) is a dependence of the
  // forward solve: x[j] must be final before column j updates x[i]. A
  // bundle's lanes share one barrier level and run lock-step, so this
  // also rejects a dependence between two lanes of one bundle.
  c.note();
  bool clean = true;
  for (index_t j = 0; j < n && clean; ++j) {
    for (index_t p = l.col_begin(j); p < l.col_end(j) && clean; ++p) {
      const index_t i = l.rowind[p];
      if (i <= j || i >= n) continue;
      if (!order.before(j, i))
        clean = c.fail("dep.edge-agg", i,
                       cat("column ", j, " (level ", order.level[j],
                           ") does not complete before dependent column ", i,
                           " (level ", order.level[i], ")"));
    }
  }

  // Bundle lanes run lock-step: they must be pairwise independent (no
  // DG_L edge between lanes) and shape-homogeneous (equal incoming-term
  // and update counts — the bundle kernels' layout contract).
  c.note();
  std::vector<index_t> indeg(static_cast<std::size_t>(n), 0);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = l.col_begin(j); p < l.col_end(j); ++p) {
      const index_t i = l.rowind[p];
      if (i > j && i < n) ++indeg[i];
    }
  std::vector<index_t> member_of(static_cast<std::size_t>(n), -1);
  clean = true;
  for (index_t t = 0; t < plan.agg.tasks() && clean; ++t) {
    if (plan.agg.bundle[t] == 0) continue;
    const index_t qb = plan.agg.task_ptr[t], qe = plan.agg.task_ptr[t + 1];
    for (index_t q = qb; q < qe; ++q) member_of[plan.agg.items[q]] = t;
    index_t in0 = -1, out0 = -1;
    for (index_t q = qb; q < qe && clean; ++q) {
      const index_t j = plan.agg.items[q];
      const index_t out = l.col_end(j) - l.col_begin(j) - 1;
      if (q == qb) {
        in0 = indeg[j];
        out0 = out;
      } else if (indeg[j] != in0 || out != out0) {
        clean = c.fail("agg.bundle-shape", t,
                       cat("lane ", j, " shape (", indeg[j], " in, ", out,
                           " out) differs from lane ", plan.agg.items[qb],
                           " (", in0, " in, ", out0, " out)"));
      }
      for (index_t p = l.col_begin(j); p < l.col_end(j) && clean; ++p) {
        const index_t i = l.rowind[p];
        if (i > j && i < n && member_of[i] == t)
          clean = c.fail("agg.bundle-dependent", t,
                         cat("lane ", i, " depends on lane ", j,
                             " within one lock-step bundle"));
      }
    }
  }
}

}  // namespace sympiler::verify::detail
