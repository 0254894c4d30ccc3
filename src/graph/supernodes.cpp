#include "graph/supernodes.h"

#include <algorithm>
#include <cstdint>

#include "graph/etree.h"

namespace sympiler {

double SupernodePartition::average_width() const {
  if (count() == 0) return 0.0;
  return static_cast<double>(start.back()) / static_cast<double>(count());
}

double SupernodePartition::average_width_participating() const {
  double total = 0.0;
  index_t participating = 0;
  for (index_t s = 0; s < count(); ++s) {
    if (width(s) >= 2) {
      total += width(s);
      ++participating;
    }
  }
  return participating == 0 ? 0.0 : total / participating;
}

bool SupernodePartition::valid(index_t n) const {
  if (start.empty() || start.front() != 0 || start.back() != n) return false;
  for (std::size_t s = 0; s + 1 < start.size(); ++s)
    if (start[s] >= start[s + 1]) return false;
  if (static_cast<index_t>(col_to_super.size()) != n) return false;
  for (index_t s = 0; s < count(); ++s)
    for (index_t j = start[s]; j < start[s + 1]; ++j)
      if (col_to_super[j] != s) return false;
  return true;
}

namespace {

/// CHOLMOD's default relaxed-amalgamation table (nrelax = 4, 16, 48;
/// zrelax = 0.8, 0.1, 0.05).
bool amalgamation_allowed(index_t width, double zero_fraction,
                          index_t max_width) {
  if (width > max_width) return false;
  if (width <= 4) return true;
  if (width <= 16) return zero_fraction < 0.8;
  if (width <= 48) return zero_fraction < 0.1;
  return zero_fraction < 0.05;
}

SupernodePartition finalize(std::vector<index_t> boundaries, index_t n) {
  SupernodePartition sn;
  sn.start = std::move(boundaries);
  if (sn.start.empty() || sn.start.back() != n) sn.start.push_back(n);
  sn.col_to_super.assign(static_cast<std::size_t>(n), 0);
  for (index_t s = 0; s + 1 < static_cast<index_t>(sn.start.size()); ++s)
    for (index_t j = sn.start[s]; j < sn.start[s + 1]; ++j)
      sn.col_to_super[j] = s;
  return sn;
}

}  // namespace

SupernodePartition supernodes_cholesky(std::span<const index_t> parent,
                                       std::span<const index_t> colcount,
                                       const SupernodeOptions& opt) {
  const auto n = static_cast<index_t>(parent.size());
  SYMPILER_CHECK(colcount.size() == parent.size(),
                 "supernodes: colcount size mismatch");
  const std::vector<index_t> nchild = child_counts(parent);
  std::vector<index_t> boundaries;
  if (n == 0) return finalize(std::move(boundaries), 0);
  boundaries.push_back(0);
  index_t cur_start = 0;
  for (index_t j = 1; j < n; ++j) {
    bool merge = parent[j - 1] == j && nchild[j] == 1 &&
                 colcount[j - 1] == colcount[j] + 1;
    if (merge && j - cur_start >= opt.max_width) merge = false;
    if (!merge) {
      boundaries.push_back(j);
      cur_start = j;
    }
  }
  return finalize(std::move(boundaries), n);
}

SupernodePartition amalgamate_supernodes(const SupernodePartition& fundamental,
                                         std::span<const index_t> parent,
                                         std::span<const index_t> colcount,
                                         const SupernodeOptions& opt) {
  const index_t nf = fundamental.count();
  const auto n = static_cast<index_t>(parent.size());
  SYMPILER_CHECK(colcount.size() == parent.size() && fundamental.valid(n),
                 "amalgamate: partition does not match the etree");
  if (nf == 0) return fundamental;
  const std::vector<index_t> sparent = supernode_etree(fundamental, parent);
  const auto nnz_of = [&](index_t f) {
    std::int64_t nnz = 0;
    for (index_t j = fundamental.start[f]; j < fundamental.start[f + 1]; ++j)
      nnz += colcount[j];
    return nnz;
  };
  // cols/rows/nnz describe the merged panel of the group that starts at
  // fundamental supernode f+1. Merging f keeps the group's last column,
  // so the panel gains f's width in rows as well as in columns.
  std::vector<index_t> starts;  // group starts, collected in reverse
  index_t cols = fundamental.width(nf - 1);
  index_t rows = colcount[fundamental.start[nf - 1]];
  std::int64_t nnz = nnz_of(nf - 1);
  for (index_t f = nf - 2; f >= 0; --f) {
    const index_t w = fundamental.width(f);
    const std::int64_t f_nnz = nnz_of(f);
    bool merge = sparent[f] == f + 1;
    if (merge) {
      const std::int64_t mc = cols + w;
      const std::int64_t mr = rows + w;
      const std::int64_t trapezoid = mc * (mc + 1) / 2 + mc * (mr - mc);
      const double zero_fraction =
          static_cast<double>(trapezoid - (nnz + f_nnz)) /
          static_cast<double>(trapezoid);
      merge = amalgamation_allowed(static_cast<index_t>(mc), zero_fraction,
                                   opt.max_width);
    }
    if (merge) {
      cols += w;
      rows += w;
      nnz += f_nnz;
    } else {
      starts.push_back(fundamental.start[f + 1]);
      cols = w;
      rows = colcount[fundamental.start[f]];
      nnz = f_nnz;
    }
  }
  starts.push_back(0);
  std::reverse(starts.begin(), starts.end());
  return finalize(std::move(starts), n);
}

SupernodePartition supernodes_node_equivalence(const CscMatrix& l,
                                               const SupernodeOptions& opt) {
  const index_t n = l.cols();
  SYMPILER_CHECK(l.rows() == n, "supernodes: L must be square");
  std::vector<index_t> boundaries;
  if (n == 0) return finalize(std::move(boundaries), 0);
  boundaries.push_back(0);
  index_t cur_start = 0;
  for (index_t j = 1; j < n; ++j) {
    // Node equivalence: the outgoing edges of j-1 (off-diagonal pattern of
    // column j-1) must match the full pattern of column j. Both lists are
    // sorted, so this is a linear scan.
    const index_t pa = l.col_begin(j - 1);
    const index_t pa_end = l.col_end(j - 1);
    const index_t pb = l.col_begin(j);
    const index_t pb_end = l.col_end(j);
    bool merge = false;
    // Skip the diagonal of column j-1 (first entry when sorted).
    if (pa < pa_end && l.rowind[pa] == j - 1) {
      const index_t len_a = pa_end - (pa + 1);
      const index_t len_b = pb_end - pb;
      if (len_a == len_b && len_a > 0) {
        merge = std::equal(l.rowind.begin() + pa + 1, l.rowind.begin() + pa_end,
                           l.rowind.begin() + pb);
      }
    }
    if (merge && j - cur_start >= opt.max_width) merge = false;
    if (!merge) {
      boundaries.push_back(j);
      cur_start = j;
    }
  }
  return finalize(std::move(boundaries), n);
}

bool supernodes_consistent(const SupernodePartition& sn,
                           const CscMatrix& l_pattern) {
  const index_t n = l_pattern.cols();
  if (!sn.valid(n)) return false;
  for (index_t s = 0; s < sn.count(); ++s) {
    const index_t c1 = sn.start[s];
    const index_t c2 = sn.start[s + 1];
    // Column j in [c1, c2) must contain rows j..c2-1 (dense diagonal
    // block), and its rows >= c2 must equal those of column c1.
    for (index_t j = c1; j < c2; ++j) {
      index_t p = l_pattern.col_begin(j);
      for (index_t r = j; r < c2; ++r, ++p) {
        if (p >= l_pattern.col_end(j) || l_pattern.rowind[p] != r)
          return false;
      }
      // Compare the below-block tail with column c1's tail.
      index_t q = l_pattern.col_begin(c1) + (c2 - c1);
      const index_t q_end = l_pattern.col_end(c1);
      const index_t p_end = l_pattern.col_end(j);
      if (q_end - q != p_end - p) return false;
      for (; p < p_end; ++p, ++q)
        if (l_pattern.rowind[p] != l_pattern.rowind[q]) return false;
    }
  }
  return true;
}

std::vector<index_t> supernode_etree(const SupernodePartition& sn,
                                     std::span<const index_t> parent) {
  std::vector<index_t> sparent(static_cast<std::size_t>(sn.count()), -1);
  for (index_t s = 0; s < sn.count(); ++s) {
    const index_t last = sn.start[s + 1] - 1;
    const index_t p = parent[last];
    if (p != -1) sparent[s] = sn.col_to_super[p];
  }
  return sparent;
}

}  // namespace sympiler
