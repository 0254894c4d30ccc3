#include "support/trisolve_oracle.h"

#include <vector>

namespace sympiler::support {

void blocked_trisolve_two_pass(const core::TriSolvePlan& plan,
                               const CscMatrix& l, std::span<value_t> x) {
  SYMPILER_CHECK(plan.path == core::ExecutionPath::BlockedTriSolve,
                 "two-pass oracle: plan path is not BlockedTriSolve");
  const core::TriSolveSets& sets = plan.sets;
  const bool vi_prune = plan.options.vi_prune;
  const bool low_level = plan.options.low_level;
  const index_t* Li = l.rowind.data();
  const value_t* Lx = l.values.data();
  const index_t nblocks = vi_prune ? static_cast<index_t>(sets.sn_reach.size())
                                   : sets.blocks.count();
  std::vector<value_t> tail;
  for (index_t k = 0; k < nblocks; ++k) {
    const index_t s = vi_prune ? sets.sn_reach[k] : k;
    const index_t c1 = sets.blocks.start[s];
    const index_t c2 = sets.blocks.start[s + 1];
    const index_t cr = vi_prune ? sets.sn_first_col[k] : c1;
    const index_t tail_len = sets.colcount[c1] - (c2 - c1);

    if (low_level && c2 - cr == 1 && cr == c1) {
      // Peeled single-column supernode.
      const index_t p0 = l.col_begin(cr);
      const value_t xj = x[cr] / Lx[p0];
      x[cr] = xj;
      for (index_t p = p0 + 1; p < l.col_end(cr); ++p)
        x[Li[p]] -= Lx[p] * xj;
      continue;
    }

    // First pass: the diagonal block, dense forward substitution.
    for (index_t j = cr; j < c2; ++j) {
      const index_t p0 = l.col_begin(j);
      const value_t xj = x[j] / Lx[p0];
      x[j] = xj;
      for (index_t t = 0; t < c2 - j - 1; ++t)
        x[j + 1 + t] -= Lx[p0 + 1 + t] * xj;
    }
    if (tail_len == 0) continue;

    // Second pass: the tail, two columns at a time with the low-level
    // transformations on, then one scatter.
    tail.assign(static_cast<std::size_t>(tail_len), 0.0);
    index_t j = cr;
    if (low_level) {
      for (; j + 1 < c2; j += 2) {
        const value_t xa = x[j];
        const value_t xb = x[j + 1];
        const value_t* ca = Lx + l.col_begin(j) + (c2 - j);
        const value_t* cb = Lx + l.col_begin(j + 1) + (c2 - j - 1);
        for (index_t t = 0; t < tail_len; ++t)
          tail[t] += ca[t] * xa + cb[t] * xb;
      }
    }
    for (; j < c2; ++j) {
      const value_t xj = x[j];
      const value_t* cj = Lx + l.col_begin(j) + (c2 - j);
      for (index_t t = 0; t < tail_len; ++t) tail[t] += cj[t] * xj;
    }
    const index_t* rows = Li + l.col_begin(c1) + (c2 - c1);
    for (index_t t = 0; t < tail_len; ++t) x[rows[t]] -= tail[t];
  }
}

}  // namespace sympiler::support
