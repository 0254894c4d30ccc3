// Code-generation explorer: the paper's transformations as the
// PlanCompiler emits them, on a small system. One sparse-RHS triangular
// solve L x = b is planned under three settings — the library loop (no
// transformations), VI-Prune (the reach-set baked and, at <= 1024 update
// operations, unrolled into straight-line code with literal indices, as in
// Figure 1e) and VS-Block forced on (the blocked supernodal form over the
// pruned block-set). Each emitted kernel is printed, compiled, and checked
// bit-identical to the TriSolveExecutor interpreting the same plan.
//
// Exits non-zero on a compile failure or a mismatch; exits 0 without
// compiling when no host compiler is available.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/jit.h"
#include "core/plan_compiler.h"
#include "core/planner.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "solvers/simplicial.h"
#include "sparse/ops.h"

using namespace sympiler;

int main() {
  // Small factor so the generated code stays readable.
  const CscMatrix a = gen::grid2d_laplacian(5, 5);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix l = chol.factor();
  const std::vector<value_t> b = gen::sparse_rhs(l.cols(), 2, 3);
  std::vector<index_t> beta;
  for (index_t i = 0; i < l.cols(); ++i)
    if (b[i] != 0.0) beta.push_back(i);

  core::SympilerOptions library;
  library.vi_prune = false;
  library.vs_block = false;
  core::SympilerOptions pruned;
  pruned.vs_block = false;
  core::SympilerOptions blocked;
  blocked.vsblock_min_avg_size = 0.0;
  blocked.vsblock_min_avg_width = 0.0;  // force VS-Block on
  const struct {
    const char* name;
    core::SympilerOptions options;
  } settings[] = {
      {"library loop (no transformations)", library},
      {"VI-Prune (baked reach-set, straight-line)", pruned},
      {"VS-Block forced on (blocked, pruned block-set)", blocked},
  };

  const bool jit = core::JitModule::compiler_available();
  for (const auto& setting : settings) {
    core::PlannerConfig config;
    config.options = setting.options;
    config.enable_parallel = false;  // compiled kernels are serial
    const auto shared = std::make_shared<const core::TriSolvePlan>(
        core::Planner(config).plan_trisolve(l, beta));
    const core::TriSolvePlan& plan = *shared;
    const core::TriSolveExecutor exec(shared, l);
    std::printf("=== %s: %s plan ===\n%s\n", setting.name,
                core::to_string(plan.path),
                core::PlanCompiler::emit(plan, l).c_str());
    if (!jit) continue;

    // Interpret first: the executor adopts the kernel once it is published.
    std::vector<value_t> x_interp(b);
    exec.solve(x_interp);
    const auto kernel = core::PlanCompiler::compile(plan, l);
    if (kernel == nullptr) {
      std::fprintf(stderr, "%s: compile failed: %s\n", setting.name,
                   plan.jit->failure().c_str());
      return 1;
    }
    std::vector<value_t> x_jit(b);
    exec.solve(x_jit);
    if (std::memcmp(x_jit.data(), x_interp.data(),
                    x_jit.size() * sizeof(value_t)) != 0) {
      std::fprintf(stderr, "%s: compiled kernel differs from the interpreter\n",
                   setting.name);
      return 1;
    }
    std::printf(
        "compiled in %.0f ms; bit-identical to the interpreter; "
        "||Lx-b||_inf = %.3e\n\n",
        kernel->compile_seconds * 1e3, residual_inf_norm(l, x_jit, b));
  }
  if (!jit)
    std::printf("(host compiler unavailable: compile checks skipped)\n");
  return 0;
}
