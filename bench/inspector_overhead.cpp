// Section 4.3 reproduction: symbolic-inspection and code-generation cost.
// Paper claims: trisolve codegen+compilation costs 6-197x one numeric
// solve (amortized across the thousands of solves of an iterative
// method); Cholesky codegen+compilation adds at most 0.3x the numeric
// factorization. The JIT measurement runs on the problems whose factors
// are small enough to bake economically (the paper's compile costs grow
// the same way).
//
// Inspection now enters through the api::Solver facade: the "cold"
// columns pay the inspector (cache miss), the "warm" columns re-request
// the same pattern and are served from the SymbolicCache — the amortized
// regime every repeated-pattern workload lives in. Code generation is
// PlanCompiler emission from the cached trisolve plan (no re-inspection);
// the compile column is the host compiler's wall time for that source.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "api/solver.h"
#include "bench/common.h"
#include "core/jit.h"
#include "core/plan_compiler.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "util/timer.h"

using namespace sympiler;

int main() {
  std::printf("Section 4.3: inspection and code generation overheads\n");
  bench::print_rule(132);
  std::printf("%2s %-14s | %11s %11s | %11s %11s | %11s %11s %11s | %12s\n",
              "id", "name", "ts-cold(s)", "ts-warm(s)", "ch-cold(s)",
              "ch-warm(s)", "gen(s)", "compile(s)", "numeric(s)",
              "(gen+cc)/num");
  bench::print_rule(132);

  const bool jit = core::JitModule::compiler_available();
  for (const auto& spec : gen::suite()) {
    const CscMatrix a = spec.make();

    // Cold Cholesky factor through the facade (fresh context), then a
    // same-pattern refactor to isolate the numeric-only time: the symbolic
    // columns below are factor-total minus that numeric pass.
    auto context = std::make_shared<api::SymbolicContext>();
    api::Solver chol({}, context);
    Timer tc;
    chol.factor(a);
    const double t_ch_cold_total = tc.seconds();
    Timer tn;
    chol.factor(a);
    const double t_ch_numeric = tn.seconds();
    const double t_ch_cold =
        std::max(t_ch_cold_total - t_ch_numeric, 0.0);
    const CscMatrix l = chol.factor_csc();

    // Warm: a second solver over the same pattern — symbolic is a lookup.
    api::Solver chol_warm({}, context);
    Timer tcw;
    chol_warm.factor(a);
    const double t_ch_warm =
        std::max(tcw.seconds() - t_ch_numeric, 0.0);

    const index_t n = l.cols();
    const std::vector<value_t> b =
        gen::rhs_from_column(a, (2 * n) / 3, 4000 + spec.id);
    std::vector<index_t> beta;
    for (index_t i = 0; i < n; ++i)
      if (b[i] != 0.0) beta.push_back(i);

    // Trisolve inspection, cold then warm (same L and injection pattern).
    Timer ti;
    api::TriangularSolver exec(l, beta, {}, context);
    const double t_ts_cold = ti.seconds();
    Timer tiw;
    api::TriangularSolver exec_warm(l, beta, {}, context);
    const double t_ts_warm = tiw.seconds();

    // Numeric solve time (what the overhead amortizes against).
    std::vector<value_t> x(static_cast<std::size_t>(n));
    const double t_numeric = bench::bench_seconds([&] {
      std::copy(b.begin(), b.end(), x.begin());
      exec.solve(x);
    });

    // Trisolve code generation + compilation (paper: 6-197x numeric). A
    // copy of the cached plan with a fresh JitSlot is compiled, so the
    // shared plan never adopts the kernel.
    double t_gen = 0.0, t_compile = 0.0;
    if (jit) {
      core::TriSolvePlan plan = *exec.plan();
      plan.jit = std::make_shared<core::JitSlot>();
      Timer tg;
      const std::string source = core::PlanCompiler::emit(plan, l);
      t_gen = tg.seconds();
      if (const auto kernel = core::PlanCompiler::compile(plan, l))
        t_compile = kernel->compile_seconds;
      else
        std::fprintf(stderr, "compile failed: %s\n",
                     plan.jit->failure().c_str());
    }
    std::printf(
        "%2d %-14s | %11.4f %11.6f | %11.4f %11.6f | %11.4f %11.4f %11.6f | "
        "%11.0fx\n",
        spec.id, spec.paper_name.c_str(), t_ts_cold, t_ts_warm, t_ch_cold,
        t_ch_warm, t_gen, t_compile, t_numeric,
        t_numeric > 0 ? (t_gen + t_compile) / t_numeric : 0.0);
    std::fflush(stdout);
  }
  bench::print_rule(132);
  std::printf(
      "paper: trisolve codegen+compile costs 6-197x one numeric solve and "
      "amortizes over repeated solves;%s\n",
      jit ? "" : " (JIT skipped: no host compiler)");
  std::printf(
      "note: ch-cold/ch-warm are symbolic-only (factor total minus a "
      "numeric-only refactor); the warm path runs no inspection — its cost "
      "is key hashing, the cache hit, and executor setup (allocation).\n");
  return 0;
}
