#include "sparse/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace sympiler {

namespace {
std::atomic<std::uint64_t> g_transpose_calls{0};
}  // namespace

std::uint64_t transpose_count() {
  return g_transpose_calls.load(std::memory_order_relaxed);
}

CscMatrix transpose(const CscMatrix& a) {
  g_transpose_calls.fetch_add(1, std::memory_order_relaxed);
  CscMatrix at(a.cols(), a.rows(), a.nnz());
  const bool with_values = a.values.size() == a.rowind.size();
  if (!with_values) at.values.clear();  // a pattern transposes to a pattern
  std::vector<index_t> count(static_cast<std::size_t>(a.rows()) + 1, 0);
  for (index_t p = 0; p < a.nnz(); ++p) ++count[a.rowind[p] + 1];
  for (index_t i = 0; i < a.rows(); ++i) count[i + 1] += count[i];
  at.colptr.assign(count.begin(), count.end());
  std::vector<index_t> next(count.begin(), count.end() - 1);
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      const index_t q = next[a.rowind[p]]++;
      at.rowind[q] = j;
      if (with_values) at.values[q] = a.values[p];
    }
  }
  return at;
}

namespace {

template <typename Keep>
CscMatrix filter_entries(const CscMatrix& a, Keep keep) {
  CscMatrix out(a.rows(), a.cols());
  out.rowind.reserve(a.rowind.size());
  out.values.reserve(a.values.size());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      if (keep(a.rowind[p], j)) {
        out.rowind.push_back(a.rowind[p]);
        out.values.push_back(a.values[p]);
      }
    }
    out.colptr[j + 1] = static_cast<index_t>(out.rowind.size());
  }
  return out;
}

}  // namespace

CscMatrix lower_triangle(const CscMatrix& a) {
  return filter_entries(a, [](index_t i, index_t j) { return i >= j; });
}

CscMatrix upper_triangle_strict(const CscMatrix& a) {
  return filter_entries(a, [](index_t i, index_t j) { return i < j; });
}

CscMatrix symmetric_full_from_lower(const CscMatrix& lower) {
  SYMPILER_CHECK(lower.rows() == lower.cols(),
                 "symmetric_full_from_lower: matrix not square");
  std::vector<Triplet> trip;
  trip.reserve(static_cast<std::size_t>(lower.nnz()) * 2);
  for (index_t j = 0; j < lower.cols(); ++j) {
    for (index_t p = lower.col_begin(j); p < lower.col_end(j); ++p) {
      const index_t i = lower.rowind[p];
      SYMPILER_CHECK(i >= j, "symmetric_full_from_lower: input not lower");
      trip.push_back({i, j, lower.values[p]});
      if (i != j) trip.push_back({j, i, lower.values[p]});
    }
  }
  return CscMatrix::from_triplets(lower.rows(), lower.cols(), trip);
}

CscMatrix permute_symmetric_lower(const CscMatrix& lower,
                                  std::span<const index_t> perm) {
  SYMPILER_CHECK(lower.rows() == lower.cols(), "permute: matrix not square");
  SYMPILER_CHECK(static_cast<index_t>(perm.size()) == lower.rows(),
                 "permute: permutation size mismatch");
  SYMPILER_CHECK(is_permutation(perm), "permute: not a permutation");
  std::vector<Triplet> trip;
  trip.reserve(static_cast<std::size_t>(lower.nnz()));
  for (index_t j = 0; j < lower.cols(); ++j) {
    for (index_t p = lower.col_begin(j); p < lower.col_end(j); ++p) {
      index_t ni = perm[lower.rowind[p]];
      index_t nj = perm[j];
      if (ni < nj) std::swap(ni, nj);  // keep the lower triangle
      trip.push_back({ni, nj, lower.values[p]});
    }
  }
  return CscMatrix::from_triplets(lower.rows(), lower.cols(), trip);
}

void matvec(const CscMatrix& a, std::span<const value_t> x,
            std::span<value_t> y) {
  SYMPILER_CHECK(static_cast<index_t>(x.size()) == a.cols() &&
                     static_cast<index_t>(y.size()) == a.rows(),
                 "matvec: size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (index_t j = 0; j < a.cols(); ++j) {
    const value_t xj = x[j];
    if (xj == 0.0) continue;
    for (index_t p = a.col_begin(j); p < a.col_end(j); ++p)
      y[a.rowind[p]] += a.values[p] * xj;
  }
}

void matvec_symmetric_lower(const CscMatrix& lower, std::span<const value_t> x,
                            std::span<value_t> y) {
  SYMPILER_CHECK(lower.rows() == lower.cols(), "matvec_sym: not square");
  SYMPILER_CHECK(static_cast<index_t>(x.size()) == lower.cols() &&
                     static_cast<index_t>(y.size()) == lower.rows(),
                 "matvec_sym: size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (index_t j = 0; j < lower.cols(); ++j) {
    for (index_t p = lower.col_begin(j); p < lower.col_end(j); ++p) {
      const index_t i = lower.rowind[p];
      const value_t v = lower.values[p];
      y[i] += v * x[j];
      if (i != j) y[j] += v * x[i];
    }
  }
}

value_t residual_inf_norm(const CscMatrix& a, std::span<const value_t> x,
                          std::span<const value_t> b) {
  std::vector<value_t> y(static_cast<std::size_t>(a.rows()), 0.0);
  matvec(a, x, y);
  value_t r = 0.0;
  for (index_t i = 0; i < a.rows(); ++i)
    r = std::max(r, std::abs(y[i] - b[i]));
  return r;
}

value_t residual_inf_norm_symmetric_lower(const CscMatrix& lower,
                                          std::span<const value_t> x,
                                          std::span<const value_t> b) {
  std::vector<value_t> y(static_cast<std::size_t>(lower.rows()), 0.0);
  matvec_symmetric_lower(lower, x, y);
  value_t r = 0.0;
  for (index_t i = 0; i < lower.rows(); ++i)
    r = std::max(r, std::abs(y[i] - b[i]));
  return r;
}

value_t llt_residual_inf_norm(const CscMatrix& l, const CscMatrix& a_lower) {
  SYMPILER_CHECK(l.rows() == l.cols() && a_lower.rows() == a_lower.cols() &&
                     l.rows() == a_lower.rows(),
                 "llt_residual: shape mismatch");
  const index_t n = l.rows();
  // Row-wise access to L: compute L^T once.
  const CscMatrix lt = transpose(l);
  // For each column j of (L L^T): sum_k L(:,k) * L(j,k) over k with
  // L(j,k) != 0, i.e. over the nonzeros of column j of L^T.
  std::vector<value_t> acc(static_cast<std::size_t>(n), 0.0);
  std::vector<index_t> touched;
  value_t err = 0.0;
  for (index_t j = 0; j < n; ++j) {
    touched.clear();
    for (index_t q = lt.col_begin(j); q < lt.col_end(j); ++q) {
      const index_t k = lt.rowind[q];  // L(j,k) != 0, k <= j
      const value_t ljk = lt.values[q];
      for (index_t p = l.col_begin(k); p < l.col_end(k); ++p) {
        const index_t i = l.rowind[p];
        if (i < j) continue;  // only check the lower triangle
        if (acc[i] == 0.0) touched.push_back(i);
        acc[i] += l.values[p] * ljk;
      }
    }
    // Subtract A(:,j) (lower part) and record the error.
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p) {
      const index_t i = a_lower.rowind[p];
      if (acc[i] == 0.0) touched.push_back(i);
      acc[i] -= a_lower.values[p];
    }
    for (const index_t i : touched) {
      err = std::max(err, std::abs(acc[i]));
      acc[i] = 0.0;
    }
  }
  return err;
}

bool is_permutation(std::span<const index_t> perm) {
  const auto n = static_cast<index_t>(perm.size());
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (const index_t p : perm) {
    if (p < 0 || p >= n || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

std::vector<index_t> invert_permutation(std::span<const index_t> perm) {
  SYMPILER_CHECK(is_permutation(perm), "invert_permutation: not a permutation");
  std::vector<index_t> inv(perm.size());
  for (index_t i = 0; i < static_cast<index_t>(perm.size()); ++i)
    inv[perm[i]] = i;
  return inv;
}

}  // namespace sympiler
