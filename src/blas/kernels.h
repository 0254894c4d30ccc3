// Mini-BLAS: the dense kernels the supernodal (VS-Block) code paths stand
// on. Substitutes for OpenBLAS 0.2.19 in the paper's setup (not available
// offline) and doubles as the mechanism behind the paper's claim that
// Sympiler "generates specialized and highly-efficient codes for small
// dense sub-kernels".
//
// Two tiers per kernel:
//  * `_ref` reference kernels (kernels_ref.cpp, portable baseline flags) —
//    the original scalar loop nests. They define the arithmetic contract:
//    the exact per-element operation order every other tier must reproduce
//    bit-for-bit. The JIT-generated code (core/plan_compiler.cpp, compiled
//    with -ffp-contract=off) shares this order, which is what keeps
//    executor-vs-generated results identical.
//  * blocked kernels (the public names; kernels.cpp, host vector ISA with
//    FMA contraction disabled) — register-blocked micro-kernel
//    implementations that hold C tiles / solution rows in registers across
//    the whole reduction and expose fixed-width unit-stride inner loops to
//    the vectorizer. They perform the same per-element operation sequence
//    as `_ref` (terms applied one at a time, in ascending reduction order),
//    so results are bit-identical — wider vector lanes and register
//    residency change data movement, never arithmetic — pinned by
//    tests/test_blas.cpp for all shapes 1..64 including ragged leading
//    dimensions. Two blocked kernels have no `_ref` twin of their own: the
//    fused panel factorization potrf_panel is pinned to potrf_lower_ref
//    followed by trsm_right_lower_trans_ref, and the lower-trapezoid
//    update tile syrk_trapezoid_minus to gemm_nt_minus_ref on the entries
//    it computes.
//
// Multi-RHS kernels operate on an RHS-major packed block: X(i, r) lives at
// x[r + i * ldx] so the r-loop is unit-stride (the SIMD direction). Each
// RHS column's dependency chain runs the exact operation sequence of the
// corresponding single-RHS kernel, making a blocked solve_batch
// bit-identical to looped single solves.
//
// All matrices are column-major. `lda` is the leading dimension.
#pragma once

#include "util/common.h"

namespace sympiler::blas {

/// Largest dimension handled by the unrolled specializations.
inline constexpr index_t kSmallKernelMax = 8;

/// Largest RHS block width the multi-RHS kernels accept per call (callers
/// tile wider batches). Bounds the stack footprint of their accumulators
/// and sizes the plan-time RHS workspaces.
inline constexpr index_t kRhsBlockMax = 32;

// ---------------------------------------------------------------- potrf

/// Dense Cholesky of the lower triangle of the n-by-n matrix A (in place;
/// strictly-upper part untouched): potrf_panel(n, n, a, lda).
/// Bit-identical to potrf_lower_ref.
void potrf_lower(index_t n, value_t* a, index_t lda);

/// Fused panel factorization of an m-by-w panel (m >= w), the supernode
/// body's dense step: Cholesky of the top w-by-w lower triangle and
/// B := B * L^{-T} for the m-w rows below it, in one left-looking pass
/// per 8-column block (a trapezoid update with every column to its left
/// over all the block's rows, then the diagonal block unrolled, then the
/// rows below it). The strictly-upper part of the top block is untouched.
/// Bit-identical on the lower trapezoid to potrf_lower_ref(w) followed by
/// trsm_right_lower_trans_ref(m - w, w). A non-positive pivot throws
/// numerical_error at the same column, with the same value, as
/// potrf_lower_ref.
void potrf_panel(index_t m, index_t w, value_t* a, index_t lda);

/// Reference unblocked left-looking body (the arithmetic contract). A
/// non-positive pivot throws numerical_error carrying its column and value.
void potrf_lower_ref(index_t n, value_t* a, index_t lda);

// ----------------------------------------------------------------- trsv

/// Solve L x = b in place (x := L^{-1} x), L n-by-n lower, unit stride x.
/// Blocked forward substitution; bit-identical to trsv_lower_ref.
void trsv_lower(index_t n, const value_t* l, index_t lda, value_t* x);

/// Reference column-at-a-time body.
void trsv_lower_ref(index_t n, const value_t* l, index_t lda, value_t* x);

/// trsv_lower with unrolled dispatch for tiny n.
void trsv_lower_small(index_t n, const value_t* l, index_t lda, value_t* x);

/// Solve x^T L^T = b^T, i.e. x := L^{-T} x (backward substitution with the
/// transpose of a lower factor). Used by the full solve A x = b.
void trsv_lower_transpose(index_t n, const value_t* l, index_t lda,
                          value_t* x);

/// Reference body for the transpose solve (same loop nest — the backward
/// reduction is a serial accumulator chain that admits no reordering).
void trsv_lower_transpose_ref(index_t n, const value_t* l, index_t lda,
                              value_t* x);

// ----------------------------------------------------------------- trsm

/// B := B * L^{-T} for an m-by-n panel B and n-by-n lower L.
/// This is the off-diagonal supernode update of Cholesky
/// (TRSM side=right, uplo=lower, trans=T, diag=non-unit). Blocked over
/// column panels with register-tiled GEMM updates; bit-identical to
/// trsm_right_lower_trans_ref.
void trsm_right_lower_trans(index_t m, index_t n, const value_t* l,
                            index_t ldl, value_t* b, index_t ldb);

/// Reference column-at-a-time body.
void trsm_right_lower_trans_ref(index_t m, index_t n, const value_t* l,
                                index_t ldl, value_t* b, index_t ldb);

// ------------------------------------------------------ gemm / trapezoid

/// C -= A * B^T, A m-by-k, B n-by-k, C m-by-n (GEMM, beta=1, alpha=-1).
/// Register-blocked micro-kernels (8x4 tiles held in registers across the
/// whole k reduction); bit-identical to gemm_nt_minus_ref.
void gemm_nt_minus(index_t m, index_t n, index_t k, const value_t* a,
                   index_t lda, const value_t* b, index_t ldb, value_t* c,
                   index_t ldc);

/// Reference body: terms subtracted one at a time in ascending p, matching
/// the loop the JIT-generated supernodal code runs.
void gemm_nt_minus_ref(index_t m, index_t n, index_t k, const value_t* a,
                       index_t lda, const value_t* b, index_t ldb, value_t* c,
                       index_t ldc);

/// C -= A * A^T on the lower trapezoid of C only (rows i >= j), A m-by-k,
/// C m-by-n, m >= n: the supernodal update tile (SYRK on the top n rows,
/// GEMM below them). C's strictly-upper part is neither read nor written;
/// the lower trapezoid is bit-identical to
/// gemm_nt_minus_ref(m, n, k, a, lda, a, lda, c, ldc).
void syrk_trapezoid_minus(index_t m, index_t n, index_t k, const value_t* a,
                          index_t lda, value_t* c, index_t ldc);

// ----------------------------------------------------------------- gemv

/// y -= A * x, A m-by-n (GEMV, alpha=-1, beta=1). Row tiles held in
/// registers across the column sweep; bit-identical to gemv_minus_ref.
void gemv_minus(index_t m, index_t n, const value_t* a, index_t lda,
                const value_t* x, value_t* y);

/// Reference body.
void gemv_minus_ref(index_t m, index_t n, const value_t* a, index_t lda,
                    const value_t* x, value_t* y);

/// y -= A^T * x, A m-by-n, x length m, y length n. Four accumulator chains
/// at a time; bit-identical to gemv_trans_minus_ref.
void gemv_trans_minus(index_t m, index_t n, const value_t* a, index_t lda,
                      const value_t* x, value_t* y);

/// Reference body.
void gemv_trans_minus_ref(index_t m, index_t n, const value_t* a, index_t lda,
                          const value_t* x, value_t* y);

// ------------------------------------------------------------- multi-RHS
//
// X is an RHS-major packed block: X(i, r) at x[r + i * ldx], nrhs <=
// kRhsBlockMax, ldx >= nrhs. pack_rhs/unpack_rhs convert between this and
// the public column-major dense batch layout.

/// Forward solve L X = B in place over a packed RHS block. Per RHS column,
/// bit-identical to trsv_lower on that column.
void trsm_lower_multi(index_t n, index_t nrhs, const value_t* l, index_t lda,
                      value_t* x, index_t ldx);

/// Backward solve L^T X = B in place over a packed RHS block. Per RHS
/// column, bit-identical to trsv_lower_transpose.
void trsm_lower_transpose_multi(index_t n, index_t nrhs, const value_t* l,
                                index_t lda, value_t* x, index_t ldx);

/// Y -= A * X over packed blocks, A m-by-n, X n rows, Y m rows. Per RHS
/// column, bit-identical to gemv_minus.
void gemm_minus_multi(index_t m, index_t n, index_t nrhs, const value_t* a,
                      index_t lda, const value_t* x, index_t ldx, value_t* y,
                      index_t ldy);

/// Y -= A^T * X over packed blocks, A m-by-n, X m rows, Y n rows. Per RHS
/// column, bit-identical to gemv_trans_minus.
void gemm_trans_minus_multi(index_t m, index_t n, index_t nrhs,
                            const value_t* a, index_t lda, const value_t* x,
                            index_t ldx, value_t* y, index_t ldy);

/// Pack nrhs column-major dense RHS columns (column stride `col_stride`)
/// into an RHS-major block with row stride ldp.
void pack_rhs(index_t n, index_t nrhs, const value_t* x, index_t col_stride,
              value_t* xp, index_t ldp);

/// Inverse of pack_rhs.
void unpack_rhs(index_t n, index_t nrhs, const value_t* xp, index_t ldp,
                value_t* x, index_t col_stride);

}  // namespace sympiler::blas
