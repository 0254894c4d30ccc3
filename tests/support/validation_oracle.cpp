#include "support/validation_oracle.h"

#include <cmath>

namespace sympiler::support {

namespace {

void ordered_csc_checks(const CscMatrix& m) {
  SYMPILER_CHECK(m.colptr.size() == static_cast<std::size_t>(m.cols()) + 1,
                 "colptr size mismatch");
  SYMPILER_CHECK(m.colptr.front() == 0, "colptr[0] != 0");
  for (index_t j = 0; j < m.cols(); ++j)
    SYMPILER_CHECK(m.colptr[j] <= m.colptr[j + 1], "colptr not monotone");
  SYMPILER_CHECK(m.rowind.size() == m.values.size() &&
                     m.rowind.size() == static_cast<std::size_t>(m.colptr.back()),
                 "rowind/values size mismatch");
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t p = m.colptr[j]; p < m.colptr[j + 1]; ++p) {
      SYMPILER_CHECK(m.rowind[p] >= 0 && m.rowind[p] < m.rows(),
                     "row index out of range");
      if (p > m.colptr[j])
        SYMPILER_CHECK(m.rowind[p - 1] < m.rowind[p],
                       "row indices not strictly increasing within column");
    }
  }
}

void ordered_diagonal_first(const CscMatrix& m, const char* who) {
  for (index_t j = 0; j < m.cols(); ++j) {
    SYMPILER_CHECK(m.col_end(j) > m.col_begin(j),
                   std::string(who) + ": column " + std::to_string(j) +
                       " is empty (missing diagonal)");
    const index_t r0 = m.rowind[static_cast<std::size_t>(m.col_begin(j))];
    if (r0 > j)
      throw invalid_matrix_error(std::string(who) +
                                 ": missing diagonal entry in column " +
                                 std::to_string(j));
    if (r0 < j)
      throw invalid_matrix_error(
          std::string(who) + ": entry above the diagonal at (" +
          std::to_string(r0) + ", " + std::to_string(j) +
          ") — pass the lower triangle only");
  }
}

void ordered_values_finite(const CscMatrix& m, const char* who) {
  for (std::size_t p = 0; p < m.values.size(); ++p)
    if (!std::isfinite(m.values[p]))
      throw invalid_matrix_error(std::string(who) +
                                 ": non-finite value at entry " +
                                 std::to_string(p));
}

template <typename F>
std::string first_error(const F& checks) {
  try {
    checks();
  } catch (const invalid_matrix_error& e) {
    return e.what();
  }
  return {};
}

}  // namespace

std::string ordered_factor_input_error(const CscMatrix& a_lower,
                                       bool scan_values) {
  return first_error([&] {
    ordered_csc_checks(a_lower);
    SYMPILER_CHECK(a_lower.rows() == a_lower.cols(),
                   "solver: matrix must be square");
    ordered_diagonal_first(a_lower, "solver");
    if (scan_values) ordered_values_finite(a_lower, "solver");
  });
}

std::string ordered_trisolve_input_error(const CscMatrix& l,
                                         std::span<const index_t> beta,
                                         bool scan_values) {
  return first_error([&] {
    ordered_csc_checks(l);
    SYMPILER_CHECK(l.rows() == l.cols(),
                   "triangular solver: L must be square");
    ordered_diagonal_first(l, "triangular solver");
    for (const index_t i : beta)
      SYMPILER_CHECK(i >= 0 && i < l.cols(),
                     "triangular solver: RHS pattern index " +
                         std::to_string(i) + " out of range");
    if (scan_values) ordered_values_finite(l, "triangular solver");
  });
}

}  // namespace sympiler::support
