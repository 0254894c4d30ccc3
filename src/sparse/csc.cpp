#include "sparse/csc.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace sympiler {

CscMatrix::CscMatrix(index_t nrows, index_t ncols)
    : colptr(static_cast<std::size_t>(ncols) + 1, 0),
      nrows_(nrows),
      ncols_(ncols) {
  SYMPILER_CHECK(nrows >= 0 && ncols >= 0, "negative matrix dimension");
}

CscMatrix::CscMatrix(index_t nrows, index_t ncols, index_t nnz)
    : CscMatrix(nrows, ncols) {
  SYMPILER_CHECK(nnz >= 0, "negative nnz");
  rowind.resize(static_cast<std::size_t>(nnz));
  values.resize(static_cast<std::size_t>(nnz));
}

CscMatrix CscMatrix::from_triplets(index_t nrows, index_t ncols,
                                   std::span<const Triplet> triplets) {
  for (const Triplet& t : triplets) {
    SYMPILER_CHECK(t.row >= 0 && t.row < nrows && t.col >= 0 && t.col < ncols,
                   "triplet index out of range");
  }
  CscMatrix a(nrows, ncols);
  // Counting sort by column.
  std::vector<index_t> count(static_cast<std::size_t>(ncols) + 1, 0);
  for (const Triplet& t : triplets) ++count[static_cast<std::size_t>(t.col) + 1];
  for (index_t j = 0; j < ncols; ++j) count[j + 1] += count[j];
  std::vector<index_t> rows(triplets.size());
  std::vector<value_t> vals(triplets.size());
  {
    std::vector<index_t> next(count.begin(), count.end() - 1);
    for (const Triplet& t : triplets) {
      const index_t p = next[t.col]++;
      rows[p] = t.row;
      vals[p] = t.value;
    }
  }
  // Sort rows within each column and sum duplicates.
  a.colptr.assign(static_cast<std::size_t>(ncols) + 1, 0);
  std::vector<std::pair<index_t, value_t>> scratch;
  for (index_t j = 0; j < ncols; ++j) {
    scratch.clear();
    for (index_t p = count[j]; p < count[j + 1]; ++p)
      scratch.emplace_back(rows[p], vals[p]);
    std::sort(scratch.begin(), scratch.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    index_t kept = 0;
    for (std::size_t k = 0; k < scratch.size(); ++k) {
      if (kept > 0 &&
          a.rowind[a.rowind.size() - 1] == scratch[k].first) {
        a.values.back() += scratch[k].second;
      } else {
        a.rowind.push_back(scratch[k].first);
        a.values.push_back(scratch[k].second);
        ++kept;
      }
    }
    a.colptr[j + 1] = static_cast<index_t>(a.rowind.size());
  }
  return a;
}

CscMatrix CscMatrix::identity(index_t n) {
  CscMatrix a(n, n, n);
  for (index_t j = 0; j < n; ++j) {
    a.colptr[j] = j;
    a.rowind[j] = j;
    a.values[j] = 1.0;
  }
  a.colptr[n] = n;
  return a;
}

value_t CscMatrix::at(index_t i, index_t j) const {
  SYMPILER_CHECK(i >= 0 && i < nrows_ && j >= 0 && j < ncols_,
                 "at(): index out of range");
  const auto first = rowind.begin() + colptr[j];
  const auto last = rowind.begin() + colptr[j + 1];
  const auto it = std::lower_bound(first, last, i);
  if (it == last || *it != i) return 0.0;
  return values[static_cast<std::size_t>(it - rowind.begin())];
}

namespace {

/// Violations of rowind read as one long column: adjacent pairs that do
/// not ascend strictly, plus rows outside [0, nrows) (one unsigned
/// compare catches negatives too). No branches, so it vectorizes and runs
/// at memory speed; the caller exempts the pairs that straddle a column
/// boundary. At most 2 nnz - 1 < 2^32, so 32-bit lanes count exactly.
std::uint32_t row_violations(const index_t* ri, std::size_t nnz,
                             index_t nrows) {
  static_assert(sizeof(index_t) == sizeof(std::uint32_t));
  if (nnz == 0) return 0;
  const auto bound = static_cast<std::uint32_t>(nrows);
  std::uint32_t viol = static_cast<std::uint32_t>(ri[0]) >= bound;
  for (std::size_t p = 1; p < nnz; ++p)
    viol += static_cast<std::uint32_t>(ri[p] <= ri[p - 1]) +
            static_cast<std::uint32_t>(static_cast<std::uint32_t>(ri[p]) >=
                                       bound);
  return viol;
}

}  // namespace

bool CscMatrix::valid(bool diagonal_first) const noexcept {
  const auto n = static_cast<std::size_t>(ncols_);
  if (colptr.size() != n + 1 || colptr[0] != 0) return false;
  bool descends = false;
  for (std::size_t j = 0; j < n; ++j) descends |= colptr[j] > colptr[j + 1];
  if (descends || rowind.size() != static_cast<std::size_t>(colptr[n]) ||
      values.size() != rowind.size())
    return false;
  // colptr is monotone from 0 to |rowind|: every read below is in bounds.
  std::uint64_t viol = row_violations(rowind.data(), rowind.size(), nrows_);
  for (std::size_t j = 0; j < n; ++j) {
    const index_t b = colptr[j];
    if (b == colptr[j + 1]) {
      viol += static_cast<std::uint64_t>(diagonal_first);
      continue;
    }
    // Distinct nonempty columns start at distinct positions, so each
    // boundary pair the sweep counted is exempted once.
    if (b > 0) viol -= static_cast<std::uint64_t>(rowind[b] <= rowind[b - 1]);
    if (diagonal_first)
      viol += static_cast<std::uint64_t>(rowind[b] != static_cast<index_t>(j));
  }
  return viol == 0;
}

void CscMatrix::validate() const {
  if (valid()) return;
  // The ordered checks: the first violation's message.
  SYMPILER_CHECK(colptr.size() == static_cast<std::size_t>(ncols_) + 1,
                 "colptr size mismatch");
  SYMPILER_CHECK(colptr.front() == 0, "colptr[0] != 0");
  for (index_t j = 0; j < ncols_; ++j)
    SYMPILER_CHECK(colptr[j] <= colptr[j + 1], "colptr not monotone");
  SYMPILER_CHECK(rowind.size() == values.size() &&
                     rowind.size() == static_cast<std::size_t>(colptr.back()),
                 "rowind/values size mismatch");
  for (index_t j = 0; j < ncols_; ++j) {
    for (index_t p = colptr[j]; p < colptr[j + 1]; ++p) {
      SYMPILER_CHECK(rowind[p] >= 0 && rowind[p] < nrows_,
                     "row index out of range");
      if (p > colptr[j])
        SYMPILER_CHECK(rowind[p - 1] < rowind[p],
                       "row indices not strictly increasing within column");
    }
  }
}

bool CscMatrix::is_lower_triangular() const {
  for (index_t j = 0; j < ncols_; ++j)
    for (index_t p = colptr[j]; p < colptr[j + 1]; ++p)
      if (rowind[p] < j) return false;
  return true;
}

bool CscMatrix::equals(const CscMatrix& other) const {
  return same_pattern(other) && values == other.values;
}

bool CscMatrix::same_pattern(const CscMatrix& other) const {
  return nrows_ == other.nrows_ && ncols_ == other.ncols_ &&
         colptr == other.colptr && rowind == other.rowind;
}

std::string CscMatrix::to_string() const {
  std::ostringstream os;
  os << "CscMatrix " << nrows_ << "x" << ncols_ << ", nnz=" << nnz();
  return os.str();
}

}  // namespace sympiler
