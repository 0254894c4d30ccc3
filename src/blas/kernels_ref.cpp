// Reference kernels: the seed's scalar loop nests, compiled at the
// library's portable baseline flags (NO host-ISA opt-in — that is the
// point: they are the "old kernels" the blocked tier is benchmarked
// against, and the arithmetic contract it must reproduce bit-for-bit).
//
// Kept in their own TU so the blocked kernels' host-vector-ISA compile
// flags (see CMakeLists.txt) cannot leak into the baseline. Wider vector
// lanes change no arithmetic — every per-element operation is the same
// mul/sub sequence, and FP contraction is disabled in both TUs — so the
// two tiers stay bit-identical across the flag split (pinned by
// tests/test_blas.cpp for all shapes 1..64 including ragged lda).
#include <cmath>

#include "blas/kernels.h"

namespace sympiler::blas {

void potrf_lower_ref(index_t n, value_t* a, index_t lda) {
  // Unblocked left-looking; the loop the JIT-generated code runs.
  for (index_t j = 0; j < n; ++j) {
    value_t d = a[j + j * lda];
    const value_t* aj = a + j;
    for (index_t k = 0; k < j; ++k) d -= aj[k * lda] * aj[k * lda];
    if (!(d > 0.0))
      throw numerical_error("potrf: non-positive pivot", j, d);
    const value_t djj = std::sqrt(d);
    a[j + j * lda] = djj;
    const value_t inv = 1.0 / djj;
    // Rank-j update of the sub-column, then scale.
    for (index_t k = 0; k < j; ++k) {
      const value_t ljk = a[j + k * lda];
      const value_t* col = a + k * lda;
      value_t* dst = a + j * lda;
      for (index_t i = j + 1; i < n; ++i) dst[i] -= col[i] * ljk;
    }
    value_t* dst = a + j * lda;
    for (index_t i = j + 1; i < n; ++i) dst[i] *= inv;
  }
}

void trsv_lower_ref(index_t n, const value_t* l, index_t lda, value_t* x) {
  for (index_t j = 0; j < n; ++j) {
    const value_t piv = l[j + j * lda];
    if (piv == 0.0) throw numerical_error("trsv: zero diagonal");
    const value_t xj = x[j] / piv;
    x[j] = xj;
    const value_t* col = l + j * lda;
    for (index_t i = j + 1; i < n; ++i) x[i] -= col[i] * xj;
  }
}

void trsv_lower_transpose_ref(index_t n, const value_t* l, index_t lda,
                              value_t* x) {
  for (index_t j = n - 1; j >= 0; --j) {
    const value_t* col = l + j * lda;
    value_t s = x[j];
    for (index_t i = j + 1; i < n; ++i) s -= col[i] * x[i];
    const value_t piv = col[j];
    if (piv == 0.0) throw numerical_error("trsv^T: zero diagonal");
    x[j] = s / piv;
  }
}

void trsm_right_lower_trans_ref(index_t m, index_t n, const value_t* l,
                                index_t ldl, value_t* b, index_t ldb) {
  // X L^T = B  =>  X(:,j) = (B(:,j) - sum_{k<j} X(:,k) L(j,k)) / L(j,j)
  for (index_t j = 0; j < n; ++j) {
    value_t* bj = b + j * ldb;
    for (index_t k = 0; k < j; ++k) {
      const value_t ljk = l[j + k * ldl];
      const value_t* bk = b + k * ldb;
      for (index_t i = 0; i < m; ++i) bj[i] -= ljk * bk[i];
    }
    const value_t piv = l[j + j * ldl];
    if (piv == 0.0) throw numerical_error("trsm: zero diagonal");
    const value_t inv = 1.0 / piv;
    for (index_t i = 0; i < m; ++i) bj[i] *= inv;
  }
}

void gemm_nt_minus_ref(index_t m, index_t n, index_t k, const value_t* a,
                       index_t lda, const value_t* b, index_t ldb, value_t* c,
                       index_t ldc) {
  // C(i,j) -= sum_p A(i,p) * B(j,p), terms subtracted one at a time in
  // ascending p — the order the JIT-generated supernodal code runs.
  for (index_t j = 0; j < n; ++j) {
    value_t* cj = c + j * ldc;
    for (index_t p = 0; p < k; ++p) {
      const value_t bv = b[j + p * ldb];
      const value_t* ap = a + p * lda;
      for (index_t i = 0; i < m; ++i) cj[i] -= ap[i] * bv;
    }
  }
}

void gemv_minus_ref(index_t m, index_t n, const value_t* a, index_t lda,
                    const value_t* x, value_t* y) {
  for (index_t j = 0; j < n; ++j) {
    const value_t xj = x[j];
    const value_t* col = a + j * lda;
    for (index_t i = 0; i < m; ++i) y[i] -= col[i] * xj;
  }
}

void gemv_trans_minus_ref(index_t m, index_t n, const value_t* a, index_t lda,
                          const value_t* x, value_t* y) {
  for (index_t j = 0; j < n; ++j) {
    const value_t* col = a + j * lda;
    value_t s = 0.0;
    for (index_t i = 0; i < m; ++i) s += col[i] * x[i];
    y[j] -= s;
  }
}

}  // namespace sympiler::blas
