// Test oracles for the symbolic Cholesky pipeline (graph/symbolic.h).
//
// Both are slow, obviously-correct formulations the tests pin the fused
// single-transpose pipeline against; no library code calls them.
#pragma once

#include "graph/symbolic.h"
#include "sparse/csc.h"

namespace sympiler {

/// The retired textbook implementation: count by materializing every
/// ereach (one full row-pattern pass with per-row sorts), then a second
/// ereach pass to fill. O(|L| log d) time, two transposes. Produces the
/// same parent, counts, pattern order, zero value array and flops as
/// symbolic_cholesky, bit for bit.
[[nodiscard]] SymbolicFactor symbolic_cholesky_naive(const CscMatrix& a_lower);

/// Eq. 1 directly: the pattern of column j is A(j:n, j) united with the
/// children's patterns minus their diagonals. Quadratic worst case.
[[nodiscard]] CscMatrix symbolic_cholesky_reference(const CscMatrix& a_lower);

}  // namespace sympiler
