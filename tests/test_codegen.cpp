// End-to-end codegen tests: the PlanCompiler's generated C must compile
// (via the JIT) and produce bit-identical results to the executor path,
// across option combinations and pattern regimes.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "api/solver.h"
#include "core/cholesky_executor.h"
#include "core/jit.h"
#include "core/plan_compiler.h"
#include "core/symbolic_cache.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "solvers/simplicial.h"
#include "solvers/trisolve.h"
#include "sparse/ops.h"

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

namespace sympiler::core {
namespace {

CscMatrix factor_of(const CscMatrix& a) {
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  return chol.factor();
}

CscMatrix codegen_matrix(int c) {
  switch (c) {
    case 0: return gen::grid2d_laplacian(9, 9);
    case 1: return gen::block_structural(5, 5, 3, 3);
    case 2: return gen::random_spd(120, 2.0, 11);
    default: return gen::banded_spd(60, 7, 2);
  }
}

// ---------------------------------------------------------------------------
// Plan-compiled kernels (plan_compiler.h): lowering a cached ExecutionPlan
// to pattern-specialized C must be bit-identical to interpreting the same
// plan — the interpreter-vs-JIT equivalence gate of the repo's bit-identity
// contract.

std::shared_ptr<const CholeskyPlan> sequential_cholesky_plan(
    const CscMatrix& a, const SympilerOptions& opt) {
  PlannerConfig config;
  config.options = opt;
  config.enable_parallel = false;
  return std::make_shared<const CholeskyPlan>(
      Planner(config).plan_cholesky(a));
}

std::shared_ptr<const TriSolvePlan> sequential_trisolve_plan(
    const CscMatrix& l, std::span<const index_t> beta,
    const SympilerOptions& opt) {
  PlannerConfig config;
  config.options = opt;
  config.enable_parallel = false;
  return std::make_shared<const TriSolvePlan>(
      Planner(config).plan_trisolve(l, beta));
}

class PlanCompiledCholesky
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlanCompiledCholesky, KernelBitIdenticalToInterpreter) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  const auto [c, combo] = GetParam();
  const CscMatrix a = codegen_matrix(c);
  const index_t n = a.cols();

  SympilerOptions opt;
  opt.vs_block = combo & 1;
  opt.low_level = combo & 2;
  opt.vsblock_min_avg_size = 0.0;
  opt.vsblock_min_avg_width = 0.0;  // force VS-Block on when enabled

  const auto plan = sequential_cholesky_plan(a, opt);
  ASSERT_TRUE(plan->evidence.jit_eligible);
  ASSERT_TRUE(PlanCompiler::eligible(*plan));
  CholeskyExecutor exec(plan);

  // Interpreter baselines first: factor values, one solve, one batch.
  exec.factorize(a);
  const CscMatrix l_interp = exec.factor_csc();
  const std::vector<value_t> b = gen::dense_rhs(n, 7 + c);
  std::vector<value_t> x_interp(b);
  exec.solve(x_interp);
  constexpr index_t kRhs = 3;
  std::vector<value_t> batch_base;
  for (index_t r = 0; r < kRhs; ++r) {
    const std::vector<value_t> col = gen::dense_rhs(n, 100 + r);
    batch_base.insert(batch_base.end(), col.begin(), col.end());
  }
  std::vector<value_t> batch_interp(batch_base);
  exec.solve_batch(batch_interp, kRhs);

  // Lower the plan; the same executor adopts the kernel on its next call.
  const auto kernel = PlanCompiler::compile(*plan);
  ASSERT_NE(kernel, nullptr) << plan->jit->failure();
  exec.factorize(a);
  const CscMatrix l_jit = exec.factor_csc();
  ASSERT_TRUE(l_jit.same_pattern(l_interp));
  for (index_t p = 0; p < l_jit.nnz(); ++p)
    ASSERT_EQ(l_jit.values[p], l_interp.values[p])
        << "case " << c << " combo " << combo << " nz " << p;

  std::vector<value_t> x_jit(b);
  exec.solve(x_jit);
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(x_jit[i], x_interp[i]);
  std::vector<value_t> batch_jit(batch_base);
  exec.solve_batch(batch_jit, kRhs);
  for (std::size_t i = 0; i < batch_jit.size(); ++i)
    ASSERT_EQ(batch_jit[i], batch_interp[i]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanCompiledCholesky,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 4)));

TEST(PlanCompiledMerged, KernelFactorEqualsInterpreterOnMergedPlan) {
  // The compiled kernel zero-fills and scatters every panel up front; the
  // interpreter scatters A into each panel inside its supernode's body.
  // On an amalgamated plan the two must still agree bit for bit.
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  const CscMatrix a = gen::grid2d_laplacian(24, 24);
  SympilerOptions opt;
  opt.vsblock_min_avg_size = 0.0;
  opt.vsblock_min_avg_width = 0.0;
  const auto plan = sequential_cholesky_plan(a, opt);
  ASSERT_EQ(plan->path, ExecutionPath::Supernodal);
  ASSERT_LT(plan->sets.layout.nsuper(), plan->evidence.fundamental_supernodes);

  CholeskyExecutor exec(plan);
  exec.factorize(a);
  const CscMatrix l_interp = exec.factor_csc();
  ASSERT_NE(PlanCompiler::compile(*plan), nullptr) << plan->jit->failure();
  exec.factorize(a);
  EXPECT_TRUE(exec.factor_csc().equals(l_interp));
}

class PlanCompiledTriSolve
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlanCompiledTriSolve, KernelBitIdenticalToInterpreter) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  const auto [c, combo] = GetParam();
  const CscMatrix a = codegen_matrix(c);
  const CscMatrix l = factor_of(a);
  const index_t n = l.cols();
  const std::vector<value_t> b = gen::sparse_rhs(n, 1 + n / 40, 31 + c);
  std::vector<index_t> beta;
  for (index_t i = 0; i < n; ++i)
    if (b[i] != 0.0) beta.push_back(i);

  SympilerOptions opt;
  opt.vs_block = combo & 1;
  opt.low_level = combo & 2;
  // Tie VI-Prune to the low-level bit: the four combos then cover all four
  // emitted shapes — naive, blocked-unpruned, pruned, blocked+pruned.
  opt.vi_prune = (combo & 2) != 0;
  opt.vsblock_min_avg_size = 0.0;
  opt.vsblock_min_avg_width = 0.0;

  const auto plan = sequential_trisolve_plan(l, beta, opt);
  ASSERT_TRUE(plan->evidence.jit_eligible);
  TriSolveExecutor exec(plan, l);

  std::vector<value_t> x_interp(b);
  exec.solve(x_interp);
  constexpr index_t kRhs = 3;
  std::vector<value_t> batch_base;
  for (index_t r = 0; r < kRhs; ++r)
    for (index_t i = 0; i < n; ++i)
      batch_base.push_back(b[i] * static_cast<value_t>(r + 1));
  std::vector<value_t> batch_interp(batch_base);
  exec.solve_batch(batch_interp, kRhs);

  const auto kernel = PlanCompiler::compile(*plan, l);
  ASSERT_NE(kernel, nullptr) << plan->jit->failure();
  std::vector<value_t> x_jit(b);
  exec.solve(x_jit);
  for (index_t i = 0; i < n; ++i)
    ASSERT_EQ(x_jit[i], x_interp[i])
        << "case " << c << " combo " << combo << " at " << i;
  std::vector<value_t> batch_jit(batch_base);
  exec.solve_batch(batch_jit, kRhs);
  for (std::size_t i = 0; i < batch_jit.size(); ++i)
    ASSERT_EQ(batch_jit[i], batch_interp[i]);
  EXPECT_LT(residual_inf_norm(l, x_jit, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanCompiledTriSolve,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 4)));

TEST(PlanCompiledPivot, BreakdownReportsTheInterpretersPivot) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  CscMatrix a = gen::grid2d_laplacian(9, 9);
  a.values[a.col_begin(40)] = -1.0;  // the diagonal leads each column
  for (const bool supernodal : {false, true}) {
    SympilerOptions opt;
    opt.vs_block = supernodal;
    opt.vsblock_min_avg_size = 0.0;
    opt.vsblock_min_avg_width = 0.0;
    const auto plan = sequential_cholesky_plan(a, opt);
    ASSERT_EQ(plan->path, supernodal ? ExecutionPath::Supernodal
                                     : ExecutionPath::Simplicial);
    CholeskyExecutor exec(plan);
    const auto breakdown = [&] {
      try {
        exec.factorize(a);
      } catch (const numerical_error& e) {
        return std::make_tuple(e.code(), e.pivot_index(), e.pivot_value());
      }
      ADD_FAILURE() << "a non-SPD matrix factored";
      return std::make_tuple(ErrorCode::kOk, std::int64_t{-1}, 0.0);
    };
    const auto interp = breakdown();
    ASSERT_NE(PlanCompiler::compile(*plan), nullptr) << plan->jit->failure();
    const auto jit = breakdown();
    EXPECT_GE(std::get<1>(interp), 0);
    EXPECT_EQ(jit, interp) << (supernodal ? "supernodal" : "simplicial");
  }
}

TEST(PlanCompiledDispatch, FacadeBitIdenticalToInterpreterAcrossThreads) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  for (int c = 0; c < 4; ++c) {
    const CscMatrix a = codegen_matrix(c);
    const index_t n = a.cols();
    const std::vector<value_t> b = gen::dense_rhs(n, 13 + c);

    // Private contexts so the two solvers cannot share a plan: the
    // baseline must actually interpret.
    api::SolverConfig off;
    api::Solver interp(off, std::make_shared<api::SymbolicContext>());
    interp.factor(a);
    const CscMatrix l_interp = interp.factor_csc();
    std::vector<value_t> x_interp(b);
    interp.solve(x_interp);

    api::SolverConfig jit;
    jit.options.jit = core::JitMode::kAlways;
    api::Solver compiled(jit, std::make_shared<api::SymbolicContext>());
    for (const int threads : {1, 2, 4}) {
#ifdef SYMPILER_HAS_OPENMP
      omp_set_num_threads(threads);
#else
      (void)threads;
#endif
      compiled.factor(a);
      if (compiled.plan()->evidence.jit_eligible)
        ASSERT_NE(compiled.plan()->jit->kernel(), nullptr)
            << compiled.plan()->jit->failure();
      const CscMatrix l_jit = compiled.factor_csc();
      ASSERT_TRUE(l_jit.same_pattern(l_interp));
      for (index_t p = 0; p < l_jit.nnz(); ++p)
        ASSERT_EQ(l_jit.values[p], l_interp.values[p])
            << "case " << c << " threads " << threads << " nz " << p;
      std::vector<value_t> x_jit(b);
      compiled.solve(x_jit);
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(x_jit[i], x_interp[i])
            << "case " << c << " threads " << threads << " row " << i;
    }
  }
}

TEST(PlanCompiledDispatch, WarmModeCompilesAtConfiguredUseCount) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  const CscMatrix a = codegen_matrix(0);
  api::SolverConfig config;
  config.options.jit = core::JitMode::kWarm;
  config.options.jit_warm_calls = 2;
  api::Solver solver(config, std::make_shared<api::SymbolicContext>());
  solver.factor(a);
  ASSERT_TRUE(solver.plan()->evidence.jit_eligible);
  EXPECT_EQ(solver.plan()->jit->kernel(), nullptr)
      << "kWarm must interpret the cold call";
  solver.factor(a);
  EXPECT_NE(solver.plan()->jit->kernel(), nullptr)
      << solver.plan()->jit->failure();
}

TEST(PlanCompiledDispatch, OffModeNeverCompiles) {
  const CscMatrix a = codegen_matrix(0);
  api::Solver solver({}, std::make_shared<api::SymbolicContext>());
  for (int i = 0; i < 3; ++i) solver.factor(a);
  EXPECT_EQ(solver.plan()->jit->kernel(), nullptr);
  EXPECT_FALSE(solver.plan()->jit->failed());
}

TEST(PlanCompiledDispatch, SourceCapRecordsPermanentFailure) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  const CscMatrix a = codegen_matrix(0);
  const auto plan = sequential_cholesky_plan(a, {});
  EXPECT_EQ(PlanCompiler::compile(*plan, /*max_source_bytes=*/64), nullptr);
  EXPECT_TRUE(plan->jit->failed());
  EXPECT_NE(plan->jit->failure().find("exceeds"), std::string::npos);
  // Failure is permanent: an uncapped retry must not override it.
  EXPECT_EQ(PlanCompiler::compile(*plan), nullptr);
}

TEST(PlanCompiledCache, RefreshBytesWeighsArtifactWithPlan) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  const CscMatrix a = codegen_matrix(2);
  PlannerConfig config;
  config.enable_parallel = false;
  const Planner planner(config);
  const PatternKey key = planner.cholesky_key(a);

  CholeskyCache cache(CholeskyCache::kDefaultByteBudget, 1);
  auto lookup = cache.get_or_build(key, [&] { return planner.plan_cholesky(a); });
  const std::size_t before = cache.resident_bytes();
  const auto kernel = PlanCompiler::compile(*lookup.plan);
  ASSERT_NE(kernel, nullptr) << lookup.plan->jit->failure();
  // The entry weight was sampled at insert; publishing grew the plan but
  // the ledger does not see it until refresh.
  EXPECT_EQ(cache.resident_bytes(), before);
  cache.refresh_bytes(key);
  EXPECT_EQ(cache.resident_bytes(), lookup.plan->bytes());
  EXPECT_GE(cache.resident_bytes(), before + kernel->bytes());
}

TEST(PlanCompiledCache, EvictionDropsArtifactWithItsPlan) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  const CscMatrix a = codegen_matrix(0);
  const CscMatrix a2 = codegen_matrix(3);
  PlannerConfig config;
  config.enable_parallel = false;
  const Planner planner(config);
  const PatternKey key = planner.cholesky_key(a);
  const PatternKey key2 = planner.cholesky_key(a2);

  // Tiny budget, one shard: any second entry forces an eviction, and the
  // MRU rule makes the older (compiled) entry the victim.
  CholeskyCache cache(/*byte_budget=*/4096, /*shards=*/1);
  std::weak_ptr<const CompiledKernel> observed;
  {
    auto lookup =
        cache.get_or_build(key, [&] { return planner.plan_cholesky(a); });
    auto kernel = PlanCompiler::compile(*lookup.plan);
    ASSERT_NE(kernel, nullptr) << lookup.plan->jit->failure();
    cache.refresh_bytes(key);
    observed = kernel;
    EXPECT_FALSE(observed.expired());
  }
  auto lookup2 =
      cache.get_or_build(key2, [&] { return planner.plan_cholesky(a2); });
  EXPECT_FALSE(cache.find(key).hit) << "compiled plan should have been evicted";
  // All borrower references are gone and the cache dropped the plan, so
  // the dlopen'd artifact must have been released with it.
  EXPECT_TRUE(observed.expired());
}

TEST(PlanCompilerSource, SimplicialBakesReplayedCursors) {
  const CscMatrix a = codegen_matrix(0);
  SympilerOptions opt;
  opt.vs_block = false;
  const auto plan = sequential_cholesky_plan(a, opt);
  ASSERT_EQ(plan->path, ExecutionPath::Simplicial);
  const std::string source = PlanCompiler::emit(*plan);
  EXPECT_NE(source.find("updStart"), std::string::npos);
  EXPECT_NE(source.find("RUN_MIN = " + std::to_string(kDenseRunMin)),
            std::string::npos);
  EXPECT_NE(source.find(PlanCompiler::kCholeskySymbol), std::string::npos);
  EXPECT_NE(source.find("-ffp-contract=off"), std::string::npos);
}

TEST(Jit, CompileErrorSurfacesCompilerMessage) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  EXPECT_THROW(
      { auto m = JitModule::compile("this is not C++", "nope"); },
      std::runtime_error);
}

TEST(Jit, MissingSymbolThrows) {
  if (!JitModule::compiler_available()) GTEST_SKIP() << "no host compiler";
  EXPECT_THROW(
      {
        auto m = JitModule::compile("extern \"C\" void f() {}", "missing");
      },
      std::runtime_error);
}

}  // namespace
}  // namespace sympiler::core
