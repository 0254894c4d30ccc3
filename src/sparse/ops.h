// Structural and numerical operations on CSC matrices: transpose,
// permutation, triangle extraction, symmetrization, matrix-vector products,
// and the residual helpers the test-suite builds its properties on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler {

/// B = A^T (values transposed too; a pattern without values transposes
/// to a pattern without values). O(nnz + n).
[[nodiscard]] CscMatrix transpose(const CscMatrix& a);

/// Process-wide count of transpose() calls. Regression instrumentation in
/// the style of parallel::level_schedule_builds(): a cold Planner build
/// must perform exactly one transpose (the shared upper-triangle view
/// threaded through etree, column counts, and the fused pattern sweep) —
/// tests pin that by taking this counter's delta around plan_cholesky.
[[nodiscard]] std::uint64_t transpose_count();

/// Extract the lower triangle (entries with row >= col).
[[nodiscard]] CscMatrix lower_triangle(const CscMatrix& a);

/// Extract the strict upper triangle (entries with row < col).
[[nodiscard]] CscMatrix upper_triangle_strict(const CscMatrix& a);

/// Given a symmetric matrix stored as its lower triangle, reconstruct the
/// full symmetric matrix (both triangles stored).
[[nodiscard]] CscMatrix symmetric_full_from_lower(const CscMatrix& lower);

/// Symmetric permutation B = P A P^T of a symmetric matrix stored as its
/// lower triangle; the result is again lower triangular.
/// perm maps old index -> new index (i.e. new_i = perm[old_i]).
[[nodiscard]] CscMatrix permute_symmetric_lower(const CscMatrix& lower,
                                                std::span<const index_t> perm);

/// y = A * x for a general CSC matrix.
void matvec(const CscMatrix& a, std::span<const value_t> x,
            std::span<value_t> y);

/// y = A * x where A is symmetric and stored as its lower triangle.
void matvec_symmetric_lower(const CscMatrix& lower, std::span<const value_t> x,
                            std::span<value_t> y);

/// inf-norm of (L * x - b) with L a general CSC matrix.
[[nodiscard]] value_t residual_inf_norm(const CscMatrix& a,
                                        std::span<const value_t> x,
                                        std::span<const value_t> b);

/// inf-norm of (A * x - b) with A symmetric stored lower.
[[nodiscard]] value_t residual_inf_norm_symmetric_lower(
    const CscMatrix& lower, std::span<const value_t> x,
    std::span<const value_t> b);

/// max_{ij} |(L L^T - A)_{ij}| with both L and A lower-stored; A is treated
/// as symmetric. Computed column-by-column without densifying (O(n) extra).
[[nodiscard]] value_t llt_residual_inf_norm(const CscMatrix& l,
                                            const CscMatrix& a_lower);

/// True iff perm is a permutation of {0, ..., n-1}.
[[nodiscard]] bool is_permutation(std::span<const index_t> perm);

/// Inverse permutation: result[perm[i]] = i.
[[nodiscard]] std::vector<index_t> invert_permutation(
    std::span<const index_t> perm);

}  // namespace sympiler
