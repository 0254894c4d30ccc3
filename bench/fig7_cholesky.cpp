// Figure 7 reproduction: Cholesky numeric-phase performance (GFLOP/s).
// Sympiler (VS-Block where profitable, VI-Prune otherwise) vs the
// CHOLMOD-like supernodal library and the Eigen-like simplicial library.
// The paper's +Low-Level bar has no column here: every supernodal update
// runs one trapezoid tile and its scatter, so the low-level option does
// not change the Cholesky.
//
// Shape claims: Sympiler >= CHOLMOD-like >= Eigen-like on supernode-rich
// matrices (paper: up to 2.4x over CHOLMOD, 6.3x over Eigen); Eigen
// competitive only on matrices with small supernodes; Sympiler's win over
// CHOLMOD is largest where supernodes are small (no symbolic residue in
// the numeric phase).
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/cholesky_executor.h"
#include "gen/suite.h"
#include "solvers/simplicial.h"
#include "solvers/supernodal.h"
#include "util/stats.h"

using namespace sympiler;

int main() {
  std::printf("Figure 7: Cholesky numeric GFLOP/s\n");
  bench::print_rule(120);
  std::printf("%2s %-14s | %9s %10s %10s | %9s %9s\n", "id", "name", "Eigen",
              "CHOLMOD", "Sympiler", "vs Eigen", "vs CHOLMOD");
  bench::print_rule(120);

  std::vector<double> vs_eigen, vs_cholmod;
  for (const auto& spec : gen::suite()) {
    const CscMatrix a = spec.make();

    solvers::SimplicialCholesky eigen_like(a);
    solvers::SupernodalCholesky cholmod_like(a);
    core::CholeskyExecutor sym(a);
    const double flops = sym.flops();

    const double t_eigen =
        bench::bench_seconds([&] { eigen_like.factorize(a); });
    const double t_cholmod =
        bench::bench_seconds([&] { cholmod_like.factorize(a); });
    const double t_sym = bench::bench_seconds([&] { sym.factorize(a); });

    vs_eigen.push_back(t_eigen / t_sym);
    vs_cholmod.push_back(t_cholmod / t_sym);
    std::printf("%2d %-14s | %9.3f %10.3f %10.3f | %8.2fx %8.2fx\n", spec.id,
                spec.paper_name.c_str(), flops / t_eigen * 1e-9,
                flops / t_cholmod * 1e-9, flops / t_sym * 1e-9,
                t_eigen / t_sym, t_cholmod / t_sym);
    std::fflush(stdout);
  }
  bench::print_rule(120);
  std::printf(
      "Sympiler speedups: geomean %.2fx vs Eigen-like (paper: up to "
      "6.3x), %.2fx vs CHOLMOD-like (paper: up to 2.4x)\n",
      geomean(vs_eigen), geomean(vs_cholmod));
  return 0;
}
