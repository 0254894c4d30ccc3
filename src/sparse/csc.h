// Compressed sparse column (CSC) storage — the format every kernel in the
// paper operates on ({n, Lp, Li, Lx} in the paper's notation).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/common.h"

namespace sympiler {

/// One (row, col, value) entry used during assembly.
struct Triplet {
  index_t row = 0;
  index_t col = 0;
  value_t value = 0.0;
};

/// Compressed sparse column matrix.
///
/// Invariants (checked by validate()):
///  * colptr.size() == ncols + 1, colptr.front() == 0, non-decreasing
///  * rowind.size() == values.size() == colptr.back()
///  * 0 <= rowind[p] < nrows
///  * row indices strictly increasing within each column (sorted, no dups)
///
/// Data members are public on purpose: symbolic inspectors and generated
/// kernels index the raw arrays directly, exactly like the code in the
/// paper's Figure 1.
class CscMatrix {
 public:
  CscMatrix() = default;

  /// Empty matrix of the given shape (no nonzeros).
  CscMatrix(index_t nrows, index_t ncols);

  /// Shape + preallocated nnz (indices/values value-initialized).
  CscMatrix(index_t nrows, index_t ncols, index_t nnz);

  /// Build from unordered triplets. Duplicate entries are summed,
  /// row indices sorted per column. Throws invalid_matrix_error on
  /// out-of-range indices.
  static CscMatrix from_triplets(index_t nrows, index_t ncols,
                                 std::span<const Triplet> triplets);

  /// n-by-n identity.
  static CscMatrix identity(index_t n);

  [[nodiscard]] index_t rows() const { return nrows_; }
  [[nodiscard]] index_t cols() const { return ncols_; }
  [[nodiscard]] index_t nnz() const {
    return colptr.empty() ? 0 : colptr.back();
  }

  /// Begin/end positions of column j in rowind/values.
  [[nodiscard]] index_t col_begin(index_t j) const { return colptr[j]; }
  [[nodiscard]] index_t col_end(index_t j) const { return colptr[j + 1]; }

  /// Value at (i, j), zero if not stored. O(log nnz(col j)).
  [[nodiscard]] value_t at(index_t i, index_t j) const;

  /// Throws invalid_matrix_error describing the first broken invariant.
  /// Runs valid() first; only a flagged matrix pays the ordered checks.
  void validate() const;

  /// validate()'s verdict without a message: true iff validate() would
  /// not throw and, when `diagonal_first`, every column stores its
  /// diagonal as its first entry (a lower triangle). O(1) and O(ncols)
  /// checks of colptr come first, so nothing is read past a bound; the
  /// O(nnz) sweep over rowind is branch-free and only counts violations.
  [[nodiscard]] bool valid(bool diagonal_first = false) const noexcept;

  /// True if all stored entries satisfy row >= col.
  [[nodiscard]] bool is_lower_triangular() const;

  /// True iff same shape, pattern, and values (exact comparison).
  [[nodiscard]] bool equals(const CscMatrix& other) const;

  /// True iff same shape and pattern (values ignored).
  [[nodiscard]] bool same_pattern(const CscMatrix& other) const;

  /// Human-readable summary, e.g. "CscMatrix 100x100, nnz=460".
  [[nodiscard]] std::string to_string() const;

  /// Heap bytes of the index/value arrays (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return colptr.size() * sizeof(index_t) + rowind.size() * sizeof(index_t) +
           values.size() * sizeof(value_t);
  }

  std::vector<index_t> colptr;  ///< size ncols + 1
  std::vector<index_t> rowind;  ///< size nnz
  std::vector<value_t> values;  ///< size nnz

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
};

}  // namespace sympiler
