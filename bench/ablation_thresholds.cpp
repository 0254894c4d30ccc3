// Ablation of the tuning knobs in core/options.h:
//  1. the VS-Block profitability threshold (paper hand-tunes to 160),
//  2. the supernode width cap (it also caps relaxed amalgamation, which
//     supernodal plans always apply),
//  3. the peel column-count threshold of the pruned triangular solve
//     (paper Figure 1e uses 2).
// Three representative regimes: block-structural ND (cbuckle-like), strip
// natural (Dubcova2-like), large 2-D ND mesh (ecology2-like).
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/cholesky_executor.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "gen/suite.h"

using namespace sympiler;

namespace {

void cholesky_row(const char* label, const CscMatrix& a,
                  const core::SympilerOptions& opt) {
  core::CholeskyExecutor exec(a, opt);
  const double t = bench::bench_seconds([&] { exec.factorize(a); });
  std::printf("  %-38s %10.4fs  %8.3f GF/s  vsb=%s\n", label, t,
              exec.flops() / t * 1e-9, exec.vs_block_applied() ? "yes" : "no");
  std::fflush(stdout);
}

}  // namespace

int main() {
  std::printf("Ablation: Sympiler thresholds (Cholesky numeric phase)\n");
  for (const int id : {1, 5, 10}) {
    const auto& spec = gen::suite_problem(id);
    const CscMatrix a = spec.make();
    std::printf("\nproblem %d (%s), n=%d\n", id, spec.paper_name.c_str(),
                a.cols());
    bench::print_rule(90);

    core::SympilerOptions opt;
    cholesky_row("defaults", a, opt);

    opt = {};
    opt.vsblock_min_avg_size = 0.0;
    opt.vsblock_min_avg_width = 0.0;
    cholesky_row("VS-Block forced ON", a, opt);
    opt.vsblock_min_avg_size = 1e18;
    cholesky_row("VS-Block forced OFF (VI-Prune only)", a, opt);

    opt = {};
    opt.max_supernode_width = 16;
    cholesky_row("width cap 16", a, opt);
    opt.max_supernode_width = 1024;
    cholesky_row("width cap 1024", a, opt);
  }

  std::printf("\nAblation: peel threshold (trisolve numeric phase)\n");
  for (const int id : {1, 10}) {
    const auto& spec = gen::suite_problem(id);
    const CscMatrix a = spec.make();
    core::CholeskyExecutor chol(a);
    chol.factorize(a);
    const CscMatrix l = chol.factor_csc();
    const index_t n = l.cols();
    const std::vector<value_t> b =
        gen::rhs_from_column(a, (2 * n) / 3, 5000 + id);
    std::vector<index_t> beta;
    for (index_t i = 0; i < n; ++i)
      if (b[i] != 0.0) beta.push_back(i);
    std::printf("\nproblem %d (%s)\n", id, spec.paper_name.c_str());
    bench::print_rule(60);
    for (const index_t peel : {0, 2, 8, 64}) {
      core::SympilerOptions opt;
      opt.peel_colcount = peel;
      core::TriSolveExecutor exec(l, beta, opt);
      std::vector<value_t> x(static_cast<std::size_t>(n));
      const double t = bench::bench_seconds([&] {
        std::copy(b.begin(), b.end(), x.begin());
        exec.solve(x);
      });
      std::printf("  peel_colcount=%-4d %12.6fs  %8.3f GF/s\n", peel, t,
                  exec.flops() / t * 1e-9);
      std::fflush(stdout);
    }
  }
  return 0;
}
