#include "support/symbolic_oracles.h"

#include <algorithm>
#include <vector>

#include "graph/etree.h"

namespace sympiler {

SymbolicFactor symbolic_cholesky_naive(const CscMatrix& a_lower) {
  const index_t n = a_lower.cols();
  SYMPILER_CHECK(a_lower.rows() == n, "symbolic_cholesky: not square");
  SYMPILER_CHECK(a_lower.is_lower_triangular(),
                 "symbolic_cholesky: input must be the lower triangle");
  SymbolicFactor s;
  s.parent = elimination_tree(a_lower);
  s.colcount.assign(static_cast<std::size_t>(n), 1);  // diagonals
  ERreach er(a_lower, s.parent);

  // Pass 1: column counts. L(i,j) != 0 (i > j) iff j in ereach(i).
  for (index_t i = 0; i < n; ++i)
    for (const index_t j : er.row_pattern(i)) ++s.colcount[j];

  // Allocate the pattern.
  s.l_pattern = CscMatrix(n, n);
  s.l_pattern.colptr[0] = 0;
  for (index_t j = 0; j < n; ++j)
    s.l_pattern.colptr[j + 1] = s.l_pattern.colptr[j] + s.colcount[j];
  s.fill_nnz = s.l_pattern.colptr[n];
  s.l_pattern.rowind.assign(static_cast<std::size_t>(s.fill_nnz), 0);
  s.l_pattern.values.assign(static_cast<std::size_t>(s.fill_nnz), 0.0);

  // Pass 2: fill row indices. Row i contributes the diagonal of column i
  // plus one entry per ereach column; visiting i in ascending order emits
  // each column's rows already sorted.
  std::vector<index_t> next(s.l_pattern.colptr.begin(),
                            s.l_pattern.colptr.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    s.l_pattern.rowind[next[i]++] = i;  // diagonal first
    for (const index_t j : er.row_pattern(i))
      s.l_pattern.rowind[next[j]++] = i;
  }

  for (index_t j = 0; j < n; ++j) {
    const double cc = s.colcount[j];
    s.flops += cc * cc;  // cc divisions + (cc^2 - cc) mul/add, ~cc^2
  }
  return s;
}

CscMatrix symbolic_cholesky_reference(const CscMatrix& a_lower) {
  const index_t n = a_lower.cols();
  const std::vector<index_t> parent = elimination_tree(a_lower);
  const ChildLists cl = build_child_lists(parent);
  // Column patterns built in order; Eq. 1: Lj = Aj  U {j}  U ( U_{T(s)=j}
  // Ls \ {s} ).
  std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(n));
  std::vector<char> mark(static_cast<std::size_t>(n), 0);
  for (index_t j = 0; j < n; ++j) {
    std::vector<index_t>& col = cols[j];
    col.push_back(j);
    mark[j] = 1;
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p) {
      const index_t i = a_lower.rowind[p];
      if (!mark[i]) {
        mark[i] = 1;
        col.push_back(i);
      }
    }
    for (index_t c = cl.head[j]; c != -1; c = cl.next[c]) {
      for (const index_t i : cols[c]) {
        if (i == c) continue;  // Ls \ {s}
        if (!mark[i]) {
          mark[i] = 1;
          col.push_back(i);
        }
      }
    }
    std::sort(col.begin(), col.end());
    for (const index_t i : col) mark[i] = 0;
  }
  CscMatrix l(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (const index_t i : cols[j]) {
      l.rowind.push_back(i);
      l.values.push_back(0.0);
    }
    l.colptr[j + 1] = static_cast<index_t>(l.rowind.size());
  }
  return l;
}

}  // namespace sympiler
