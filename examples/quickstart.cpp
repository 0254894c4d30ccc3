// Quickstart: the end-to-end Sympiler pipeline on a small SPD system.
//
//   1. build a sparse SPD matrix (2-D Laplacian),
//   2. run the symbolic inspector / "compile" the kernels for its pattern,
//   3. factorize numerically and solve,
//   4. re-solve with new values at numeric-only cost (the static-sparsity
//      workflow the paper targets).
//
// Build:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "core/cholesky_executor.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "sparse/ops.h"
#include "util/timer.h"

using namespace sympiler;

int main() {
  // A 64x64 grid Laplacian, nested-dissection ordered: n = 4096.
  const CscMatrix a = gen::grid2d_laplacian(64, 64);
  std::printf("matrix: %s\n", a.to_string().c_str());

  // --- "compile time": symbolic inspection for this sparsity pattern ---
  Timer t_sym;
  core::CholeskyExecutor cholesky(a);  // etree, fill, supernodes, schedule
  std::printf("symbolic inspection: %.3f ms (VS-Block %s, %d supernodes)\n",
              t_sym.seconds() * 1e3,
              cholesky.vs_block_applied() ? "applied" : "skipped",
              cholesky.plan().evidence.supernodes);

  // --- numeric factorization + solve ---
  Timer t_num;
  cholesky.factorize(a);
  std::printf("numeric factorization: %.3f ms (%.2f GFLOP/s)\n",
              t_num.seconds() * 1e3,
              cholesky.flops() / t_num.seconds() * 1e-9);

  const std::vector<value_t> b = gen::dense_rhs(a.cols(), 42);
  std::vector<value_t> x(b);
  cholesky.solve(x);
  std::printf("||Ax - b||_inf = %.3e\n",
              residual_inf_norm_symmetric_lower(a, x, b));

  // --- sparse triangular solve on the factor, sparse RHS ---
  const CscMatrix l = cholesky.factor_csc();
  const std::vector<value_t> sparse_b = gen::rhs_from_column(a, 100, 7);
  std::vector<index_t> beta;
  for (index_t i = 0; i < l.cols(); ++i)
    if (sparse_b[i] != 0.0) beta.push_back(i);
  core::TriSolveExecutor trisolve(l, beta);  // inspector: DFS reach-set
  std::printf("sparse RHS: %zu nonzeros -> reach-set of %zu columns (of %d)\n",
              beta.size(), trisolve.sets().reach.size(), l.cols());
  std::vector<value_t> y(sparse_b);
  trisolve.solve(y);
  std::printf("||Ly - b||_inf = %.3e\n",
              residual_inf_norm(l, y, sparse_b));

  // --- static sparsity: refactorize with new values, symbolic reused ---
  CscMatrix a2 = a;
  for (auto& v : a2.values) v *= 2.0;
  Timer t_re;
  cholesky.factorize(a2);
  std::printf("refactorize (same pattern, new values): %.3f ms\n",
              t_re.seconds() * 1e3);
  return 0;
}
