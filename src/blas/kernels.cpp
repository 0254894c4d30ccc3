#include "blas/kernels.h"

#include <cmath>

// The blocked kernels below are written against one invariant: every
// element's value is produced by the exact operation sequence of the `_ref`
// kernel (terms applied one at a time, ascending reduction index, scale
// last). Register blocking changes *where* intermediate values live (tile
// accumulators instead of memory), never the per-element sequence, so the
// results are bit-identical on targets without FP contraction — and the
// build never enables -ffast-math or per-TU contraction differences.
#define SYMPILER_RESTRICT __restrict__

namespace sympiler::blas {

namespace {

// Micro-tile geometry. 8x4 double tiles keep the hot gemm loop inside the
// SSE2 register file (with predictable spills GCC schedules well) and give
// the vectorizer fixed-width unit-stride inner loops.
constexpr index_t kMr = 8;  ///< micro-tile rows (C / solution vectors)
constexpr index_t kNr = 4;  ///< micro-tile cols (C) / unrolled chains
constexpr index_t kDiagBlock = 8;  ///< potrf/trsv/trsm diagonal block size
constexpr index_t kRhsVec = 8;     ///< multi-RHS register-vector width

// ---------------------------------------------------------------------------
// Unrolled compile-time-sized kernels ("Sympiler-generated" small kernels).
// ---------------------------------------------------------------------------

/// `col0` is the column of a[0] in the matrix being factored: a
/// non-positive pivot is reported at col0 + j.
template <int N>
void potrf_unrolled(value_t* a, index_t lda, index_t col0) {
  for (int j = 0; j < N; ++j) {
    value_t d = a[j + j * lda];
    for (int k = 0; k < j; ++k) d -= a[j + k * lda] * a[j + k * lda];
    if (!(d > 0.0))
      throw numerical_error("potrf: non-positive pivot", col0 + j, d);
    const value_t djj = std::sqrt(d);
    a[j + j * lda] = djj;
    const value_t inv = 1.0 / djj;
    for (int i = j + 1; i < N; ++i) {
      value_t s = a[i + j * lda];
      for (int k = 0; k < j; ++k) s -= a[i + k * lda] * a[j + k * lda];
      a[i + j * lda] = s * inv;
    }
  }
}

template <int N>
void trsv_unrolled(const value_t* l, index_t lda, value_t* x) {
  for (int j = 0; j < N; ++j) {
    const value_t xj = x[j] / l[j + j * lda];
    x[j] = xj;
    for (int i = j + 1; i < N; ++i) x[i] -= l[i + j * lda] * xj;
  }
}

// ---------------------------------------------------------------------------
// GEMM micro-kernels: an MR x NR tile of C rides in registers across the
// whole k reduction; each accumulator element applies its terms one at a
// time in ascending p — the _ref order. A kDiag tile has its top-left
// corner on C's diagonal: it neither reads nor writes C's strictly-upper
// entries (their accumulators start at zero and are dropped).
// ---------------------------------------------------------------------------

template <int MR, int NR, bool kDiag = false>
void gemm_tile(index_t k, const value_t* SYMPILER_RESTRICT a, index_t lda,
               const value_t* SYMPILER_RESTRICT b, index_t ldb,
               value_t* SYMPILER_RESTRICT c, index_t ldc) {
  value_t acc[NR][MR];
  for (int j = 0; j < NR; ++j)
    for (int i = 0; i < MR; ++i)
      acc[j][i] = (kDiag && i < j) ? 0.0 : c[i + j * ldc];
  for (index_t p = 0; p < k; ++p) {
    const value_t* SYMPILER_RESTRICT ap = a + p * lda;
    value_t av[MR];
    for (int i = 0; i < MR; ++i) av[i] = ap[i];
    for (int j = 0; j < NR; ++j) {
      const value_t bv = b[j + p * ldb];
      for (int i = 0; i < MR; ++i) acc[j][i] -= av[i] * bv;
    }
  }
  for (int j = 0; j < NR; ++j)
    for (int i = kDiag ? j : 0; i < MR; ++i) c[i + j * ldc] = acc[j][i];
}

template <int NR>
void gemm_col_strip(index_t m, index_t k, const value_t* a, index_t lda,
                    const value_t* b, index_t ldb, value_t* c, index_t ldc) {
  index_t i = 0;
  for (; i + 2 * kMr <= m; i += 2 * kMr)
    gemm_tile<2 * kMr, NR>(k, a + i, lda, b, ldb, c + i, ldc);
  if (i + kMr <= m) {
    gemm_tile<kMr, NR>(k, a + i, lda, b, ldb, c + i, ldc);
    i += kMr;
  }
  if (i + 4 <= m) {
    gemm_tile<4, NR>(k, a + i, lda, b, ldb, c + i, ldc);
    i += 4;
  }
  if (i + 2 <= m) {
    gemm_tile<2, NR>(k, a + i, lda, b, ldb, c + i, ldc);
    i += 2;
  }
  if (i < m) gemm_tile<1, NR>(k, a + i, lda, b, ldb, c + i, ldc);
}

/// An NR-column strip of the lower trapezoid C -= A A^T whose first row
/// is on C's diagonal (m >= NR rows, B = A's first NR rows): an NR x NR
/// kDiag tile on the diagonal, a register-tiled GEMM for the rows below.
template <int NR>
void trapezoid_strip(index_t m, index_t k, const value_t* a, index_t lda,
                     value_t* c, index_t ldc) {
  gemm_tile<NR, NR, true>(k, a, lda, a, lda, c, ldc);
  gemm_col_strip<NR>(m - NR, k, a + NR, lda, a, lda, c + NR, ldc);
}

// Unblocked in-block bodies shared by the blocked triangular kernels.

void trsv_lower_unblocked(index_t n, const value_t* l, index_t lda,
                          value_t* x) {
  for (index_t j = 0; j < n; ++j) {
    const value_t piv = l[j + j * lda];
    if (piv == 0.0) throw numerical_error("trsv: zero diagonal");
    const value_t xj = x[j] / piv;
    x[j] = xj;
    const value_t* col = l + j * lda;
    for (index_t i = j + 1; i < n; ++i) x[i] -= col[i] * xj;
  }
}

void trsm_rlt_unblocked(index_t m, index_t n, const value_t* l, index_t ldl,
                        value_t* b, index_t ldb) {
  for (index_t j = 0; j < n; ++j) {
    value_t* SYMPILER_RESTRICT bj = b + j * ldb;
    for (index_t k = 0; k < j; ++k) {
      const value_t ljk = l[j + k * ldl];
      const value_t* SYMPILER_RESTRICT bk = b + k * ldb;
      for (index_t i = 0; i < m; ++i) bj[i] -= ljk * bk[i];
    }
    const value_t piv = l[j + j * ldl];
    if (piv == 0.0) throw numerical_error("trsm: zero diagonal");
    const value_t inv = 1.0 / piv;
    for (index_t i = 0; i < m; ++i) bj[i] *= inv;
  }
}

/// Factor the nb-by-nb diagonal block at a (nb <= kDiagBlock), unrolled;
/// `col0` is its first column in the matrix being factored.
void potrf_block(index_t nb, value_t* a, index_t lda, index_t col0) {
  switch (nb) {
    case 1: return potrf_unrolled<1>(a, lda, col0);
    case 2: return potrf_unrolled<2>(a, lda, col0);
    case 3: return potrf_unrolled<3>(a, lda, col0);
    case 4: return potrf_unrolled<4>(a, lda, col0);
    case 5: return potrf_unrolled<5>(a, lda, col0);
    case 6: return potrf_unrolled<6>(a, lda, col0);
    case 7: return potrf_unrolled<7>(a, lda, col0);
    default: return potrf_unrolled<kDiagBlock>(a, lda, col0);
  }
}

}  // namespace

// ------------------------------------------------------------------ potrf

void potrf_panel(index_t m, index_t w, value_t* a, index_t lda) {
  // Left-looking over kDiagBlock column blocks, one pass over each block
  // column: a trapezoid update brings in the terms of every column to its
  // left (long register-resident reductions), then its diagonal block
  // factors unrolled and the rows below it solve against it. Every
  // element still receives its terms in ascending k (blocks are
  // contiguous ascending ranges), then its scale — the _ref order.
  for (index_t k0 = 0; k0 < w; k0 += kDiagBlock) {
    const index_t nb = std::min(kDiagBlock, w - k0);
    value_t* akk = a + k0 + k0 * lda;
    if (k0 > 0) syrk_trapezoid_minus(m - k0, nb, k0, a + k0, lda, akk, lda);
    potrf_block(nb, akk, lda, k0);
    trsm_rlt_unblocked(m - k0 - nb, nb, akk, lda, akk + nb, lda);
  }
}

void potrf_lower(index_t n, value_t* a, index_t lda) {
  potrf_panel(n, n, a, lda);
}

// ------------------------------------------------------------------- trsv

void trsv_lower(index_t n, const value_t* l, index_t lda, value_t* x) {
  // Blocked forward substitution: solve a diagonal block, push its
  // contribution into the remaining rows with the register-tiled gemv.
  for (index_t j0 = 0; j0 < n; j0 += kDiagBlock) {
    const index_t nb = std::min(kDiagBlock, n - j0);
    trsv_lower_unblocked(nb, l + j0 + j0 * lda, lda, x + j0);
    const index_t rem = n - j0 - nb;
    if (rem > 0)
      gemv_minus(rem, nb, l + (j0 + nb) + j0 * lda, lda, x + j0,
                 x + j0 + nb);
  }
}

void trsv_lower_small(index_t n, const value_t* l, index_t lda, value_t* x) {
  switch (n) {
    case 0: return;
    case 1:
      x[0] /= l[0];
      return;
    case 2: return trsv_unrolled<2>(l, lda, x);
    case 3: return trsv_unrolled<3>(l, lda, x);
    case 4: return trsv_unrolled<4>(l, lda, x);
    case 5: return trsv_unrolled<5>(l, lda, x);
    case 6: return trsv_unrolled<6>(l, lda, x);
    case 7: return trsv_unrolled<7>(l, lda, x);
    case 8: return trsv_unrolled<8>(l, lda, x);
    default: return trsv_lower(n, l, lda, x);
  }
}

void trsv_lower_transpose(index_t n, const value_t* l, index_t lda,
                          value_t* x) {
  // The backward reduction is one serial accumulator chain per element;
  // there is no reordering-free blocking to apply — same loop nest as the
  // reference, compiled with this TU's vector flags.
  for (index_t j = n - 1; j >= 0; --j) {
    const value_t* col = l + j * lda;
    value_t s = x[j];
    for (index_t i = j + 1; i < n; ++i) s -= col[i] * x[i];
    const value_t piv = col[j];
    if (piv == 0.0) throw numerical_error("trsv^T: zero diagonal");
    x[j] = s / piv;
  }
}

// ------------------------------------------------------------------- trsm

void trsm_right_lower_trans(index_t m, index_t n, const value_t* l,
                            index_t ldl, value_t* b, index_t ldb) {
  // X L^T = B, blocked over column panels of B: columns [0, j0) are final
  // when panel [j0, j0+nb) starts, so their contribution is one
  // register-tiled GEMM (ascending k — the _ref subtraction order), then
  // the panel solves against the diagonal block.
  for (index_t j0 = 0; j0 < n; j0 += kDiagBlock) {
    const index_t nb = std::min(kDiagBlock, n - j0);
    if (j0 > 0)
      gemm_nt_minus(m, nb, j0, b, ldb, l + j0, ldl, b + j0 * ldb, ldb);
    trsm_rlt_unblocked(m, nb, l + j0 + j0 * ldl, ldl, b + j0 * ldb, ldb);
  }
}

// ------------------------------------------------------- gemm / trapezoid

void gemm_nt_minus(index_t m, index_t n, index_t k, const value_t* a,
                   index_t lda, const value_t* b, index_t ldb, value_t* c,
                   index_t ldc) {
  index_t j = 0;
  for (; j + kNr <= n; j += kNr)
    gemm_col_strip<kNr>(m, k, a, lda, b + j, ldb, c + j * ldc, ldc);
  if (j + 2 <= n) {
    gemm_col_strip<2>(m, k, a, lda, b + j, ldb, c + j * ldc, ldc);
    j += 2;
  }
  if (j < n) gemm_col_strip<1>(m, k, a, lda, b + j, ldb, c + j * ldc, ldc);
}

void syrk_trapezoid_minus(index_t m, index_t n, index_t k, const value_t* a,
                          index_t lda, value_t* c, index_t ldc) {
  // Column strips of kNr, each starting on the diagonal: a kDiag row tile
  // there, a register-tiled GEMM for every row below it.
  index_t j = 0;
  for (; j + kNr <= n; j += kNr)
    trapezoid_strip<kNr>(m - j, k, a + j, lda, c + j + j * ldc, ldc);
  if (j + 2 <= n) {
    trapezoid_strip<2>(m - j, k, a + j, lda, c + j + j * ldc, ldc);
    j += 2;
  }
  if (j < n) trapezoid_strip<1>(m - j, k, a + j, lda, c + j + j * ldc, ldc);
}

// ------------------------------------------------------------------- gemv

void gemv_minus(index_t m, index_t n, const value_t* a, index_t lda,
                const value_t* x, value_t* y) {
  // Column groups of kNr share one pass over y (loaded and stored once per
  // group instead of once per column); per element the terms still apply
  // in ascending j — the _ref order.
  index_t j = 0;
  for (; j + kNr <= n; j += kNr) {
    const value_t* SYMPILER_RESTRICT c0 = a + j * lda;
    const value_t* SYMPILER_RESTRICT c1 = a + (j + 1) * lda;
    const value_t* SYMPILER_RESTRICT c2 = a + (j + 2) * lda;
    const value_t* SYMPILER_RESTRICT c3 = a + (j + 3) * lda;
    const value_t x0 = x[j], x1 = x[j + 1], x2 = x[j + 2], x3 = x[j + 3];
    value_t* SYMPILER_RESTRICT yp = y;
    for (index_t i = 0; i < m; ++i) {
      value_t t = yp[i];
      t -= c0[i] * x0;
      t -= c1[i] * x1;
      t -= c2[i] * x2;
      t -= c3[i] * x3;
      yp[i] = t;
    }
  }
  for (; j < n; ++j) {
    const value_t xj = x[j];
    const value_t* SYMPILER_RESTRICT col = a + j * lda;
    for (index_t i = 0; i < m; ++i) y[i] -= col[i] * xj;
  }
}

void gemv_trans_minus(index_t m, index_t n, const value_t* a, index_t lda,
                      const value_t* x, value_t* y) {
  // kNr independent accumulator chains at a time (x loaded once per group);
  // each chain accumulates ascending i then subtracts once — _ref order.
  index_t j = 0;
  for (; j + kNr <= n; j += kNr) {
    const value_t* SYMPILER_RESTRICT c0 = a + j * lda;
    const value_t* SYMPILER_RESTRICT c1 = a + (j + 1) * lda;
    const value_t* SYMPILER_RESTRICT c2 = a + (j + 2) * lda;
    const value_t* SYMPILER_RESTRICT c3 = a + (j + 3) * lda;
    value_t s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (index_t i = 0; i < m; ++i) {
      const value_t xi = x[i];
      s0 += c0[i] * xi;
      s1 += c1[i] * xi;
      s2 += c2[i] * xi;
      s3 += c3[i] * xi;
    }
    y[j] -= s0;
    y[j + 1] -= s1;
    y[j + 2] -= s2;
    y[j + 3] -= s3;
  }
  for (; j < n; ++j) {
    const value_t* col = a + j * lda;
    value_t s = 0.0;
    for (index_t i = 0; i < m; ++i) s += col[i] * x[i];
    y[j] -= s;
  }
}

// -------------------------------------------------------------- multi-RHS

void trsm_lower_multi(index_t n, index_t nrhs, const value_t* l, index_t lda,
                      value_t* x, index_t ldx) {
  SYMPILER_CHECK(nrhs <= kRhsBlockMax, "trsm multi: RHS block too wide");
  for (index_t j = 0; j < n; ++j) {
    const value_t piv = l[j + j * lda];
    if (piv == 0.0) throw numerical_error("trsm_lower_multi: zero diagonal");
    value_t* SYMPILER_RESTRICT xj = x + j * ldx;
    for (index_t r = 0; r < nrhs; ++r) xj[r] /= piv;
    const value_t* col = l + j * lda;
    for (index_t i = j + 1; i < n; ++i) {
      const value_t lij = col[i];
      value_t* SYMPILER_RESTRICT xi = x + i * ldx;
      for (index_t r = 0; r < nrhs; ++r) xi[r] -= lij * xj[r];
    }
  }
}

void trsm_lower_transpose_multi(index_t n, index_t nrhs, const value_t* l,
                                index_t lda, value_t* x, index_t ldx) {
  SYMPILER_CHECK(nrhs <= kRhsBlockMax, "trsm^T multi: RHS block too wide");
  value_t s[kRhsBlockMax];
  for (index_t j = n - 1; j >= 0; --j) {
    const value_t* col = l + j * lda;
    value_t* SYMPILER_RESTRICT xj = x + j * ldx;
    for (index_t r = 0; r < nrhs; ++r) s[r] = xj[r];
    for (index_t i = j + 1; i < n; ++i) {
      const value_t lij = col[i];
      const value_t* SYMPILER_RESTRICT xi = x + i * ldx;
      for (index_t r = 0; r < nrhs; ++r) s[r] -= lij * xi[r];
    }
    const value_t piv = col[j];
    if (piv == 0.0)
      throw numerical_error("trsm_lower_transpose_multi: zero diagonal");
    for (index_t r = 0; r < nrhs; ++r) xj[r] = s[r] / piv;
  }
}

namespace {

// Y(i, r0..r0+RV) -= sum_j A(i,j) X(j, r0..r0+RV): a register chunk of Y's
// row rides across the whole j sweep; per (i, r) the terms apply in
// ascending j, matching gemv_minus on that RHS column.
template <int RV>
void gemm_minus_multi_chunk(index_t m, index_t n, const value_t* a,
                            index_t lda, const value_t* SYMPILER_RESTRICT x,
                            index_t ldx, value_t* SYMPILER_RESTRICT y,
                            index_t ldy) {
  for (index_t i = 0; i < m; ++i) {
    value_t* SYMPILER_RESTRICT yi = y + i * ldy;
    const value_t* SYMPILER_RESTRICT ai = a + i;
    value_t acc[RV];
    for (int t = 0; t < RV; ++t) acc[t] = yi[t];
    for (index_t j = 0; j < n; ++j) {
      const value_t av = ai[j * lda];
      const value_t* SYMPILER_RESTRICT xj = x + j * ldx;
      for (int t = 0; t < RV; ++t) acc[t] -= av * xj[t];
    }
    for (int t = 0; t < RV; ++t) yi[t] = acc[t];
  }
}

// Y(j, r0..r0+RV) -= sum_i A(i,j) X(i, r0..r0+RV): per (j, r) an
// accumulator over ascending i then one subtraction, matching
// gemv_trans_minus on that RHS column.
template <int RV>
void gemm_trans_minus_multi_chunk(index_t m, index_t n, const value_t* a,
                                  index_t lda,
                                  const value_t* SYMPILER_RESTRICT x,
                                  index_t ldx, value_t* SYMPILER_RESTRICT y,
                                  index_t ldy) {
  for (index_t j = 0; j < n; ++j) {
    const value_t* SYMPILER_RESTRICT col = a + j * lda;
    value_t* SYMPILER_RESTRICT yj = y + j * ldy;
    value_t acc[RV] = {};
    for (index_t i = 0; i < m; ++i) {
      const value_t av = col[i];
      const value_t* SYMPILER_RESTRICT xi = x + i * ldx;
      for (int t = 0; t < RV; ++t) acc[t] += av * xi[t];
    }
    for (int t = 0; t < RV; ++t) yj[t] -= acc[t];
  }
}

}  // namespace

void gemm_minus_multi(index_t m, index_t n, index_t nrhs, const value_t* a,
                      index_t lda, const value_t* x, index_t ldx, value_t* y,
                      index_t ldy) {
  // Widest chunk first: at the full packed-block width the strided panel
  // column is swept once per row instead of once per 8-RHS subchunk.
  index_t r0 = 0;
  for (; r0 + kRhsBlockMax <= nrhs; r0 += kRhsBlockMax)
    gemm_minus_multi_chunk<kRhsBlockMax>(m, n, a, lda, x + r0, ldx, y + r0,
                                         ldy);
  for (; r0 + kRhsVec <= nrhs; r0 += kRhsVec)
    gemm_minus_multi_chunk<kRhsVec>(m, n, a, lda, x + r0, ldx, y + r0, ldy);
  for (; r0 < nrhs; ++r0)
    gemm_minus_multi_chunk<1>(m, n, a, lda, x + r0, ldx, y + r0, ldy);
}

void gemm_trans_minus_multi(index_t m, index_t n, index_t nrhs,
                            const value_t* a, index_t lda, const value_t* x,
                            index_t ldx, value_t* y, index_t ldy) {
  index_t r0 = 0;
  for (; r0 + kRhsBlockMax <= nrhs; r0 += kRhsBlockMax)
    gemm_trans_minus_multi_chunk<kRhsBlockMax>(m, n, a, lda, x + r0, ldx,
                                               y + r0, ldy);
  for (; r0 + kRhsVec <= nrhs; r0 += kRhsVec)
    gemm_trans_minus_multi_chunk<kRhsVec>(m, n, a, lda, x + r0, ldx, y + r0,
                                          ldy);
  for (; r0 < nrhs; ++r0)
    gemm_trans_minus_multi_chunk<1>(m, n, a, lda, x + r0, ldx, y + r0, ldy);
}

void pack_rhs(index_t n, index_t nrhs, const value_t* x, index_t col_stride,
              value_t* xp, index_t ldp) {
  for (index_t r = 0; r < nrhs; ++r) {
    const value_t* SYMPILER_RESTRICT xc = x + r * col_stride;
    value_t* SYMPILER_RESTRICT dst = xp + r;
    for (index_t i = 0; i < n; ++i) dst[i * ldp] = xc[i];
  }
}

void unpack_rhs(index_t n, index_t nrhs, const value_t* xp, index_t ldp,
                value_t* x, index_t col_stride) {
  for (index_t r = 0; r < nrhs; ++r) {
    const value_t* SYMPILER_RESTRICT src = xp + r;
    value_t* SYMPILER_RESTRICT xc = x + r * col_stride;
    for (index_t i = 0; i < n; ++i) xc[i] = src[i * ldp];
  }
}

}  // namespace sympiler::blas
