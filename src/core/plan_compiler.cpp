#include "core/plan_compiler.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

namespace sympiler::core {

namespace {

// ------------------------------------------------------------------ helpers

void emit_array(std::ostringstream& os, const char* name,
                std::span<const index_t> data) {
  os << "static const int " << name << "["
     << std::max<std::size_t>(data.size(), 1) << "] = {";
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 16 == 0) os << "\n  ";
    os << data[i] << (i + 1 < data.size() ? "," : "");
  }
  os << "};\n";
}

void emit_array64(std::ostringstream& os, const char* name,
                  std::span<const std::int64_t> data) {
  os << "static const long long " << name << "["
     << std::max<std::size_t>(data.size(), 1) << "] = {";
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 12 == 0) os << "\n  ";
    os << data[i] << "LL" << (i + 1 < data.size() ? "," : "");
  }
  os << "};\n";
}

/// Reach chains below this many update operations are emitted as fully
/// unrolled straight-line code (every index a literal); above it, the
/// baked-array loop form is used (same operation order either way).
constexpr std::int64_t kStraightLineOps = 1024;

// ------------------------------------------------- Cholesky: simplicial

/// Replay the simplicial interpreter's per-row cursors symbolically: the
/// position `next[k]` the executor reads when column j consumes column k
/// is a pure pattern function (Lp[k]+1, bumped once per consumer in
/// ascending-j order), so the compiled kernel bakes it per update and
/// drops the cursor array — and its dependent load chain — entirely.
std::vector<index_t> replay_update_starts(const CscMatrix& l,
                                          std::span<const index_t> rowpat_ptr,
                                          std::span<const index_t> rowpat) {
  const index_t n = l.cols();
  std::vector<index_t> cursor(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) cursor[k] = l.col_begin(k) + 1;
  std::vector<index_t> start(rowpat.size());
  for (index_t j = 0; j < n; ++j)
    for (index_t q = rowpat_ptr[j]; q < rowpat_ptr[j + 1]; ++q)
      start[q] = cursor[rowpat[q]]++;
  return start;
}

void emit_cholesky_simplicial(std::ostringstream& os,
                              const CholeskyPlan& plan) {
  const CscMatrix& l = plan.sets.sym.l_pattern;
  const index_t n = l.cols();
  const std::vector<index_t> upd_start = replay_update_starts(
      l, plan.sets.rowpat_ptr, plan.sets.rowpat);

  os << "// simplicial left-looking Cholesky, pattern-specialized: the\n"
        "// ereach chains (rowPat) and the replayed column cursors\n"
        "// (updStart) are baked, so the numeric loop chases no cursor\n"
        "// array. Operation order mirrors\n"
        "// CholeskyExecutor::factorize_simplicial exactly.\n";
  emit_array(os, "Lp", l.colptr);
  emit_array(os, "Li", l.rowind);
  emit_array(os, "rowPatPtr", plan.sets.rowpat_ptr);
  emit_array(os, "rowPat", plan.sets.rowpat);
  emit_array(os, "updStart", upd_start);
  os << "enum { N = " << n << " };\n\n";

  os << "extern \"C\" int " << PlanCompiler::kCholeskySymbol
     << "(const int* Ap, const int* Ai, const double* Ax,\n"
        "    double* Lx, double* f, int* iwork) {\n"
        "  (void)iwork;\n"
        "  for (int i = 0; i < N; ++i) f[i] = 0.0;\n"
        "  for (int j = 0; j < N; ++j) {\n"
        "    for (int p = Ap[j]; p < Ap[j + 1]; ++p) {\n"
        "      const int i = Ai[p];\n"
        "      if (i >= j) f[i] = Ax[p];\n"
        "    }\n"
        "    for (int q = rowPatPtr[j]; q < rowPatPtr[j + 1]; ++q) {\n"
        "      const int k = rowPat[q];\n"
        "      const int pj = updStart[q];\n"
        "      const double lkj = Lx[pj];\n"
        "      for (int p = pj; p < Lp[k + 1]; ++p) f[Li[p]] -= Lx[p] * lkj;\n"
        "    }\n"
        "    const double d = f[j];\n"
        "    if (!(d > 0.0)) return -1 - j;\n"
        "    const double ljj = std::sqrt(d);\n"
        "    const int pdiag = Lp[j];\n"
        "    Lx[pdiag] = ljj;\n"
        "    f[j] = 0.0;\n"
        "    const double inv = 1.0 / ljj;\n"
        "    for (int p = pdiag + 1; p < Lp[j + 1]; ++p) {\n"
        "      const int i = Li[p];\n"
        "      Lx[p] = f[i] * inv;\n"
        "      f[i] = 0.0;\n"
        "    }\n"
        "  }\n"
        "  return 0;\n"
        "}\n";
}

// ------------------------------------------------- Cholesky: supernodal

/// _ref-order dense helpers (blas/kernels_ref.cpp): the blocked blas tier
/// is pinned bit-identical to these scalar loop nests, so emitting them
/// keeps the compiled kernel bit-identical to the interpreter across the
/// small-kernel / blocked dispatch (including the w==1 peel, whose scalar
/// sequence equals potrf(1) + trsm(m-1, 1)).
void emit_dense_helpers(std::ostringstream& os) {
  os << "static int potrf_lower(const int n, double* a, const int lda) {\n"
        "  for (int j = 0; j < n; ++j) {\n"
        "    double d = a[j + j * lda];\n"
        "    const double* aj = a + j;\n"
        "    for (int k = 0; k < j; ++k) d -= aj[k * lda] * aj[k * lda];\n"
        "    if (!(d > 0.0)) return 0;\n"
        "    const double djj = std::sqrt(d);\n"
        "    a[j + j * lda] = djj;\n"
        "    const double inv = 1.0 / djj;\n"
        "    for (int k = 0; k < j; ++k) {\n"
        "      const double ljk = a[j + k * lda];\n"
        "      const double* col = a + k * lda;\n"
        "      double* dst = a + j * lda;\n"
        "      for (int i = j + 1; i < n; ++i) dst[i] -= col[i] * ljk;\n"
        "    }\n"
        "    double* dst = a + j * lda;\n"
        "    for (int i = j + 1; i < n; ++i) dst[i] *= inv;\n"
        "  }\n"
        "  return 1;\n"
        "}\n\n"
        "static void trsm_rlt(const int m, const int n, const double* l,\n"
        "                     const int ldl, double* b, const int ldb) {\n"
        "  for (int j = 0; j < n; ++j) {\n"
        "    double* bj = b + j * ldb;\n"
        "    for (int k = 0; k < j; ++k) {\n"
        "      const double ljk = l[j + k * ldl];\n"
        "      const double* bk = b + k * ldb;\n"
        "      for (int i = 0; i < m; ++i) bj[i] -= ljk * bk[i];\n"
        "    }\n"
        "    const double inv = 1.0 / l[j + j * ldl];\n"
        "    for (int i = 0; i < m; ++i) bj[i] *= inv;\n"
        "  }\n"
        "}\n\n"
        "static void gemm_nt_minus(const int m, const int n, const int k,\n"
        "                          const double* a, const int lda,\n"
        "                          const double* b, const int ldb, double* c,\n"
        "                          const int ldc) {\n"
        "  for (int j = 0; j < n; ++j) {\n"
        "    double* cj = c + j * ldc;\n"
        "    for (int p = 0; p < k; ++p) {\n"
        "      const double bv = b[j + p * ldb];\n"
        "      const double* ap = a + p * lda;\n"
        "      for (int i = 0; i < m; ++i) cj[i] -= ap[i] * bv;\n"
        "    }\n"
        "  }\n"
        "}\n\n";
}

void emit_cholesky_supernodal(std::ostringstream& os,
                              const CholeskyPlan& plan) {
  const solvers::SupernodalLayout& layout = plan.sets.layout;
  const index_t nsuper = layout.nsuper();
  const bool specialized =
      plan.options.low_level &&
      plan.sets.avg_colcount < plan.options.blas_switch_colcount;

  std::vector<index_t> upd_d, upd_p1, upd_p2;
  upd_d.reserve(plan.sets.updates.refs.size());
  for (const solvers::UpdateRef& ref : plan.sets.updates.refs) {
    upd_d.push_back(ref.d);
    upd_p1.push_back(ref.p1);
    upd_p2.push_back(ref.p2);
  }

  os << "// supernodal left-looking Cholesky, pattern-specialized: the\n"
        "// supernode extents, panel offsets, and the static update\n"
        "// schedule are baked"
     << (plan.agg.empty()
             ? "; natural supernode order.\n"
             : ", and the aggregate schedule is flattened\n"
               "// into straight-line phases, one per barrier level (any\n"
               "// topological order is bit-identical for left-looking\n"
               "// updates).\n")
     << "// Operation order mirrors\n"
        "// CholeskyExecutor::factorize_supernodal exactly, including the\n"
        "// peeled single-target-column update when SPECIALIZED.\n";
  emit_dense_helpers(os);
  emit_array(os, "snStart", layout.sn.start);
  emit_array(os, "srowPtr", layout.srow_ptr);
  emit_array(os, "srows", layout.srows);
  emit_array64(os, "panelPtr", layout.panel_ptr);
  emit_array(os, "updPtr", plan.sets.updates.ptr);
  emit_array(os, "updD", upd_d);
  emit_array(os, "updP1", upd_p1);
  emit_array(os, "updP2", upd_p2);
  os << "enum { N = " << layout.n << ", NSUPER = " << nsuper
     << ", SPECIALIZED = " << (specialized ? 1 : 0) << " };\n\n";

  os << "static int factor_one(const int s, const double* Ax, double* panels,\n"
        "                      double* work, int* map) {\n"
        "  (void)Ax;\n"
        "  const int c1 = snStart[s];\n"
        "  const int w = snStart[s + 1] - c1;\n"
        "  const int m = srowPtr[s + 1] - srowPtr[s];\n"
        "  const int* rows = srows + srowPtr[s];\n"
        "  double* panel = panels + panelPtr[s];\n"
        "  for (int t = 0; t < m; ++t) map[rows[t]] = t;\n"
        "  for (int u = updPtr[s]; u < updPtr[s + 1]; ++u) {\n"
        "    const int d = updD[u];\n"
        "    const int p1 = updP1[u];\n"
        "    const int nu = updP2[u] - p1;\n"
        "    const int* drows = srows + srowPtr[d];\n"
        "    const int dm = srowPtr[d + 1] - srowPtr[d];\n"
        "    const int dw = snStart[d + 1] - snStart[d];\n"
        "    const double* dpanel = panels + panelPtr[d];\n"
        "    const int mu = dm - p1;\n"
        "    if (SPECIALIZED && nu == 1) {\n"
        "      double* dst = panel + (long long)(drows[p1] - c1) * m;\n"
        "      for (int p = 0; p < dw; ++p) {\n"
        "        const double* dcol = dpanel + (long long)p * dm;\n"
        "        const double fv = dcol[p1];\n"
        "        if (fv == 0.0) continue;\n"
        "        for (int r = 0; r < mu; ++r)\n"
        "          dst[map[drows[p1 + r]]] -= dcol[p1 + r] * fv;\n"
        "      }\n"
        "      continue;\n"
        "    }\n"
        "    for (long long t = 0; t < (long long)mu * nu; ++t) work[t] = "
        "0.0;\n"
        "    gemm_nt_minus(mu, nu, dw, dpanel + p1, dm, dpanel + p1, dm, "
        "work, mu);\n"
        "    for (int cjj = 0; cjj < nu; ++cjj) {\n"
        "      const int gcol = drows[p1 + cjj];\n"
        "      double* dst = panel + (long long)(gcol - c1) * m;\n"
        "      const double* src = work + (long long)cjj * mu;\n"
        "      for (int r = cjj; r < mu; ++r) dst[map[drows[p1 + r]]] += "
        "src[r];\n"
        "    }\n"
        "  }\n"
        "  if (!potrf_lower(w, panel, m)) return -1 - c1;\n"
        "  if (m > w) trsm_rlt(m - w, w, panel, m, panel + w, m);\n"
        "  return 0;\n"
        "}\n\n";

  os << "extern \"C\" int " << PlanCompiler::kCholeskySymbol
     << "(const int* Ap, const int* Ai, const double* Ax,\n"
        "    double* panels, double* work, int* map) {\n"
        "  for (long long t = 0; t < "
     << layout.total_values()
     << "LL; ++t) panels[t] = 0.0;\n"
        "  for (int s = 0; s < NSUPER; ++s) {\n"
        "    const int c1 = snStart[s];\n"
        "    const int m = srowPtr[s + 1] - srowPtr[s];\n"
        "    const int* rows = srows + srowPtr[s];\n"
        "    for (int t = 0; t < m; ++t) map[rows[t]] = t;\n"
        "    double* panel = panels + panelPtr[s];\n"
        "    for (int j = c1; j < snStart[s + 1]; ++j) {\n"
        "      double* col = panel + (long long)(j - c1) * m;\n"
        "      for (int p = Ap[j]; p < Ap[j + 1]; ++p) {\n"
        "        const int i = Ai[p];\n"
        "        if (i < j) continue;\n"
        "        col[map[i]] = Ax[p];\n"
        "      }\n"
        "    }\n"
        "  }\n";
  if (plan.agg.empty()) {
    os << "  for (int s = 0; s < NSUPER; ++s) {\n"
          "    const int rc = factor_one(s, Ax, panels, work, map);\n"
          "    if (rc != 0) return rc;\n"
          "  }\n";
  } else {
    // Straight-line phases: one loop per aggregate level over the baked
    // task-major item order (chain members in chain order), dependencies
    // resolved by construction.
    const parallel::AggregateSchedule& agg = plan.agg;
    emit_array(os, "snOrder", agg.items);
    for (index_t lv = 0; lv < agg.levels(); ++lv) {
      const index_t b = agg.task_ptr[agg.level_ptr[lv]];
      const index_t e = agg.task_ptr[agg.level_ptr[lv + 1]];
      os << "  /* phase " << lv << ": " << (e - b) << " supernode(s) */\n"
         << "  for (int t = " << b << "; t < " << e
         << "; ++t) {\n"
            "    const int rc =\n"
            "        factor_one(snOrder[t], Ax, panels, work, map);\n"
            "    if (rc != 0) return rc;\n"
            "  }\n";
    }
  }
  os << "  return 0;\n}\n";
}

// ------------------------------------------------------ trisolve shapes

void emit_trisolve_pruned(std::ostringstream& os, const TriSolvePlan& plan,
                          const CscMatrix& l) {
  if (!plan.options.vi_prune) {
    os << "// naive forward solve (no transformations): the runtime\n"
          "// exact-zero skip mirrors TriSolveExecutor::solve_pruned's\n"
          "// library loop.\n"
          "enum { N = "
       << l.cols()
       << " };\n\n"
          "extern \"C\" void "
       << PlanCompiler::kTriSolveSymbol
       << "(const int* Lp, const int* Li, const double* Lx, double* x,\n"
          "    double* tail) {\n"
          "  (void)tail;\n"
          "  for (int j = 0; j < N; ++j) {\n"
          "    if (x[j] == 0.0) continue;\n"
          "    const int p0 = Lp[j];\n"
          "    const double xj = x[j] / Lx[p0];\n"
          "    x[j] = xj;\n"
          "    for (int p = p0 + 1; p < Lp[j + 1]; ++p) x[Li[p]] -= Lx[p] * "
          "xj;\n"
          "  }\n"
          "}\n";
    return;
  }

  const std::vector<index_t>& reach = plan.sets.reach;
  std::int64_t total_ops = 0;
  for (const index_t j : reach) total_ops += l.col_end(j) - l.col_begin(j);

  os << "// pruned forward solve over the baked reach-set. Operation order\n"
        "// mirrors TriSolveExecutor::solve_pruned (the executor's 4-way\n"
        "// peel reorders nothing).\n";
  os << "extern \"C\" void " << PlanCompiler::kTriSolveSymbol
     << "(const int* Lp, const int* Li, const double* Lx, double* x,\n"
        "    double* tail) {\n"
        "  (void)Lp; (void)tail;\n";
  if (total_ops <= kStraightLineOps) {
    // Fully unrolled ereach chains: every row index and value offset a
    // literal — no index loads at all.
    os << "  (void)Li;\n";
    for (const index_t j : reach) {
      const index_t p0 = l.col_begin(j);
      const index_t p1 = l.col_end(j);
      os << "  {\n    const double xj = x[" << j << "] / Lx[" << p0
         << "];\n    x[" << j << "] = xj;\n";
      for (index_t p = p0 + 1; p < p1; ++p)
        os << "    x[" << l.rowind[p] << "] -= Lx[" << p << "] * xj;\n";
      os << "  }\n";
    }
  } else {
    std::vector<index_t> col_begin, col_end;
    col_begin.reserve(reach.size());
    for (const index_t j : reach) {
      col_begin.push_back(l.col_begin(j));
      col_end.push_back(l.col_end(j));
    }
    emit_array(os, "pruneSet", reach);
    emit_array(os, "colBegin", col_begin);
    emit_array(os, "colEnd", col_end);
    os << "  for (int k = 0; k < " << reach.size()
       << "; ++k) {\n"
          "    const int j = pruneSet[k];\n"
          "    const int p0 = colBegin[k];\n"
          "    const double xj = x[j] / Lx[p0];\n"
          "    x[j] = xj;\n"
          "    for (int p = p0 + 1; p < colEnd[k]; ++p) x[Li[p]] -= Lx[p] * "
          "xj;\n"
          "  }\n";
  }
  os << "}\n";
}

void emit_trisolve_blocked(std::ostringstream& os, const TriSolvePlan& plan,
                           const CscMatrix& l) {
  (void)l;
  const TriSolveSets& sets = plan.sets;
  std::vector<index_t> blk_c1, blk_c2, blk_cr, blk_tail;
  const index_t nblocks = plan.options.vi_prune
                              ? static_cast<index_t>(sets.sn_reach.size())
                              : sets.blocks.count();
  for (index_t k = 0; k < nblocks; ++k) {
    const index_t s = plan.options.vi_prune ? sets.sn_reach[k] : k;
    blk_c1.push_back(sets.blocks.start[s]);
    blk_c2.push_back(sets.blocks.start[s + 1]);
    blk_cr.push_back(plan.options.vi_prune ? sets.sn_first_col[k]
                                           : blk_c1.back());
    blk_tail.push_back(sets.colcount[blk_c1.back()] -
                       (blk_c2.back() - blk_c1.back()));
  }

  os << "// VS-Block supernodal forward solve over the baked block-set\n"
        "// (restricted to the supernode-level prune-set when VI-Prune is\n"
        "// on). Operation order mirrors TriSolveExecutor::solve_blocked\n"
        "// exactly, including the LOW_LEVEL column pairing of the tail\n"
        "// accumulation and the peeled single-column supernodes.\n";
  emit_array(os, "blkC1", blk_c1);
  emit_array(os, "blkC2", blk_c2);
  emit_array(os, "blkCr", blk_cr);
  emit_array(os, "blkTail", blk_tail);
  os << "enum { NBLOCKS = " << nblocks
     << ", LOW_LEVEL = " << (plan.options.low_level ? 1 : 0) << " };\n\n";

  os << "extern \"C\" void " << PlanCompiler::kTriSolveSymbol
     << "(const int* Lp, const int* Li, const double* Lx, double* x,\n"
        "    double* tail) {\n"
        "  for (int k = 0; k < NBLOCKS; ++k) {\n"
        "    const int c1 = blkC1[k];\n"
        "    const int c2 = blkC2[k];\n"
        "    const int cr = blkCr[k];\n"
        "    const int tail_len = blkTail[k];\n"
        "    if (LOW_LEVEL && c2 - cr == 1 && cr == c1) {\n"
        "      const int p0 = Lp[cr];\n"
        "      const double xj = x[cr] / Lx[p0];\n"
        "      x[cr] = xj;\n"
        "      for (int p = p0 + 1; p < Lp[cr + 1]; ++p) x[Li[p]] -= Lx[p] * "
        "xj;\n"
        "      continue;\n"
        "    }\n"
        "    for (int j = cr; j < c2; ++j) {\n"
        "      const int p0 = Lp[j];\n"
        "      const double xj = x[j] / Lx[p0];\n"
        "      x[j] = xj;\n"
        "      const double* col = Lx + p0 + 1;\n"
        "      double* xrow = x + j + 1;\n"
        "      const int blen = c2 - j - 1;\n"
        "      for (int t = 0; t < blen; ++t) xrow[t] -= col[t] * xj;\n"
        "    }\n"
        "    if (tail_len == 0) continue;\n"
        "    for (int t = 0; t < tail_len; ++t) tail[t] = 0.0;\n"
        "    int j = cr;\n"
        "    if (LOW_LEVEL) {\n"
        "      for (; j + 1 < c2; j += 2) {\n"
        "        const double xa = x[j];\n"
        "        const double xb = x[j + 1];\n"
        "        const double* ca = Lx + Lp[j] + (c2 - j);\n"
        "        const double* cb = Lx + Lp[j + 1] + (c2 - j - 1);\n"
        "        for (int t = 0; t < tail_len; ++t)\n"
        "          tail[t] += ca[t] * xa + cb[t] * xb;\n"
        "      }\n"
        "    }\n"
        "    for (; j < c2; ++j) {\n"
        "      const double xj = x[j];\n"
        "      const double* cj = Lx + Lp[j] + (c2 - j);\n"
        "      for (int t = 0; t < tail_len; ++t) tail[t] += cj[t] * xj;\n"
        "    }\n"
        "    const int* rows = Li + Lp[c1] + (c2 - c1);\n"
        "    for (int t = 0; t < tail_len; ++t) x[rows[t]] -= tail[t];\n"
        "  }\n"
        "}\n";
}

std::string preamble(const char* what, const PatternKey& key) {
  std::ostringstream os;
  os << "// Generated by Sympiler-repro: plan-compiled " << what << "\n"
        "// specialized for one sparsity pattern ("
     << key.rows << "x" << key.cols << ", nnz=" << key.nnz;
  if (key.rhs_nnz > 0) os << ", rhs_nnz=" << key.rhs_nnz;
  os << ")\n"
        "// Compile with -ffp-contract=off: bit-identity with the\n"
        "// interpreters requires uncontracted rounding (see jit.cpp).\n"
        "#include <cmath>\n\n";
  return os.str();
}

template <class Plan, class EmitFn>
std::shared_ptr<const CompiledKernel> compile_impl(
    const Plan& plan, const char* symbol, std::size_t max_source_bytes,
    EmitFn&& emit_fn) {
  const JitSlot& slot = *plan.jit;
  if (auto existing = slot.kernel()) return existing;
  if (slot.failed()) return nullptr;
  if (!JitModule::compiler_available()) {
    slot.mark_failed("no host compiler");
    return nullptr;
  }
  const std::string source = emit_fn();
  if (max_source_bytes > 0 && source.size() > max_source_bytes) {
    std::ostringstream why;
    why << "source " << source.size() << " bytes exceeds cap "
        << max_source_bytes;
    slot.mark_failed(why.str());
    return nullptr;
  }
  try {
    auto kernel = std::make_shared<CompiledKernel>();
    kernel->module = JitModule::compile(source, symbol);
    kernel->symbol = symbol;
    kernel->source_bytes = source.size();
    kernel->compile_seconds = kernel->module.compile_seconds();
    std::shared_ptr<const CompiledKernel> shared = std::move(kernel);
    if (!slot.publish(shared)) return slot.kernel();  // lost a publish race
    return shared;
  } catch (const std::exception& e) {
    slot.mark_failed(e.what());
    return nullptr;
  } catch (...) {
    slot.mark_failed("unknown jit failure");
    return nullptr;
  }
}

}  // namespace

bool PlanCompiler::eligible(const CholeskyPlan& plan) {
  return plan.path == ExecutionPath::Simplicial ||
         plan.path == ExecutionPath::Supernodal;
}

bool PlanCompiler::eligible(const TriSolvePlan& plan) {
  return plan.path == ExecutionPath::PrunedTriSolve ||
         plan.path == ExecutionPath::BlockedTriSolve;
}

std::string PlanCompiler::emit(const CholeskyPlan& plan) {
  std::ostringstream os;
  os << preamble("sparse Cholesky", plan.key);
  if (plan.path == ExecutionPath::Simplicial) {
    emit_cholesky_simplicial(os, plan);
  } else {
    // Supernodal and ParallelSupernodal: one supernodal emission; the
    // parallel plan's aggregate schedule is flattened into phases.
    emit_cholesky_supernodal(os, plan);
  }
  return os.str();
}

std::string PlanCompiler::emit(const TriSolvePlan& plan, const CscMatrix& l) {
  std::ostringstream os;
  os << preamble("sparse triangular solve", plan.key);
  if (plan.path == ExecutionPath::BlockedTriSolve) {
    emit_trisolve_blocked(os, plan, l);
  } else {
    // Pruned and ParallelTriSolve (whose sequential interpretation is the
    // pruned solve).
    emit_trisolve_pruned(os, plan, l);
  }
  return os.str();
}

std::shared_ptr<const CompiledKernel> PlanCompiler::compile(
    const CholeskyPlan& plan, std::size_t max_source_bytes) {
  return compile_impl(plan, kCholeskySymbol, max_source_bytes,
                      [&] { return emit(plan); });
}

std::shared_ptr<const CompiledKernel> PlanCompiler::compile(
    const TriSolvePlan& plan, const CscMatrix& l,
    std::size_t max_source_bytes) {
  return compile_impl(plan, kTriSolveSymbol, max_source_bytes,
                      [&] { return emit(plan, l); });
}

}  // namespace sympiler::core
