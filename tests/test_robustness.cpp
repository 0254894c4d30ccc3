// Failure-domain tests: the structured error taxonomy, deterministic
// fault injection at every instrumented site, and the facades'
// graceful-degradation ladder (docs/robustness.md).
//
// The recurring shape: arm a fault, run a pipeline stage, assert it
// surfaces a structured error OR a documented degraded success — then
// disarm and assert the SAME solver recovers, producing results
// bit-identical to a never-faulted run. That recovery check is the
// heart of the failure-domain contract: a contained failure leaves no
// residue in the workspace, the JIT slot, or the cache entry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/solver.h"
#include "core/cholesky_executor.h"
#include "core/jit.h"
#include "core/plan_compiler.h"
#include "core/plan_store.h"
#include "core/planner.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "parallel/levelset.h"
#include "sparse/io_mm.h"
#include "util/fault.h"
#include "util/status.h"

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

namespace sympiler {
namespace {

using util::FaultInjector;
using util::FaultSite;

/// Disarm on scope exit so a failing assertion can never leak an armed
/// trigger into later tests.
struct FaultGuard {
  FaultGuard() { FaultInjector::reset(); }
  ~FaultGuard() { FaultInjector::reset(); }
};

void expect_bits_equal(const std::vector<value_t>& got,
                       const std::vector<value_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "first bit difference at index " << i;
}

/// Clean-reference factor + solve under `config`.
std::vector<value_t> reference_solution(const CscMatrix& a,
                                        const api::SolverConfig& config) {
  api::Solver solver(config, nullptr);
  solver.factor(a);
  std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
  solver.solve(x);
  return x;
}

api::SolverConfig parallel_config() {
  api::SolverConfig config;
  config.enable_parallel = true;
  config.parallel_min_supernodes = 1;
  config.parallel_min_avg_level_width = 0.0;
  return config;
}

api::SolverConfig simplicial_config() {
  api::SolverConfig config;
  config.options.vsblock_min_avg_size = 1e9;  // VS-Block never profitable
  return config;
}

/// Copy of `a` with the diagonal of column `j` overwritten.
CscMatrix with_diagonal(const CscMatrix& a, index_t j, value_t d) {
  CscMatrix out = a;
  const index_t p = out.col_begin(j);
  EXPECT_EQ(out.rowind[static_cast<std::size_t>(p)], j);
  out.values[static_cast<std::size_t>(p)] = d;
  return out;
}

// ------------------------------------------------------ injector mechanics

TEST(FaultInjectorTest, ParsesSpecs) {
  FaultSite site{};
  std::uint64_t nth = 0, count = 0;
  ASSERT_TRUE(FaultInjector::parse("pivot:3", &site, &nth, &count));
  EXPECT_EQ(site, FaultSite::kPivot);
  EXPECT_EQ(nth, 3u);
  EXPECT_EQ(count, 1u);

  ASSERT_TRUE(FaultInjector::parse("alloc:2:5", &site, &nth, &count));
  EXPECT_EQ(site, FaultSite::kAlloc);
  EXPECT_EQ(nth, 2u);
  EXPECT_EQ(count, 5u);

  ASSERT_TRUE(FaultInjector::parse("jit-compile:1", &site, &nth, &count));
  EXPECT_EQ(site, FaultSite::kJitCompile);
  ASSERT_TRUE(FaultInjector::parse("jit-load:1", &site, &nth, &count));
  EXPECT_EQ(site, FaultSite::kJitLoad);
  ASSERT_TRUE(FaultInjector::parse("cache-insert:1", &site, &nth, &count));
  EXPECT_EQ(site, FaultSite::kCacheInsert);

  EXPECT_FALSE(FaultInjector::parse(nullptr, &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot:0", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("unknown-site:1", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot:abc", &site, &nth, &count));
}

TEST(FaultInjectorTest, ParsesPersistenceSites) {
  FaultSite site{};
  std::uint64_t nth = 0, count = 0;
  ASSERT_TRUE(FaultInjector::parse("store-write:1", &site, &nth, &count));
  EXPECT_EQ(site, FaultSite::kStoreWrite);
  ASSERT_TRUE(FaultInjector::parse("store-read:2:3", &site, &nth, &count));
  EXPECT_EQ(site, FaultSite::kStoreRead);
  EXPECT_EQ(nth, 2u);
  EXPECT_EQ(count, 3u);
  ASSERT_TRUE(FaultInjector::parse("store-checksum:1", &site, &nth, &count));
  EXPECT_EQ(site, FaultSite::kStoreChecksum);
}

// The spec grammar is strict: strtoull's whitespace/sign tolerance must
// not leak through ("pivot:-1" wrapping to ordinal 2^64-1 would arm a
// trigger that never fires — the typo'd spec silently testing the happy
// path the injector exists to avoid).
TEST(FaultInjectorTest, RejectsSloppyNumerals) {
  FaultSite site{};
  std::uint64_t nth = 0, count = 0;
  EXPECT_FALSE(FaultInjector::parse("pivot:-1", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot:+1", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot: 1", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot:1 ", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot:1:", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot:1:-2", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot:1: 2", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot:1:2:3", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("pivot:1x", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse(":1", &site, &nth, &count));
  EXPECT_FALSE(FaultInjector::parse("PIVOT:1", &site, &nth, &count));
}

// A malformed SYMPILER_FAULT must reject loudly: injector disarmed and a
// sticky structured kInvalidInput naming the bad spec in env_status().
TEST(EnvFault, MalformedSpecRejectsWithStructuredStatus) {
  FaultGuard fg;
  const char* saved = std::getenv("SYMPILER_FAULT");
  const std::string saved_copy = saved != nullptr ? saved : "";

  ASSERT_EQ(setenv("SYMPILER_FAULT", "store-wrlte:1", 1), 0);
  EXPECT_FALSE(FaultInjector::arm_from_env());
  const Status bad = FaultInjector::env_status();
  EXPECT_EQ(bad.code, ErrorCode::kInvalidInput);
  EXPECT_NE(bad.message.find("store-wrlte:1"), std::string::npos);
  EXPECT_NE(bad.message.find("store-write"), std::string::npos)
      << "the diagnostic should list the valid site names";
  EXPECT_FALSE(FaultInjector::should_fail(FaultSite::kStoreWrite));

  // A clean spec (or an absent variable) clears the sticky status.
  ASSERT_EQ(setenv("SYMPILER_FAULT", "store-write:1", 1), 0);
  EXPECT_TRUE(FaultInjector::arm_from_env());
  EXPECT_TRUE(FaultInjector::env_status().ok());

  if (saved != nullptr) {
    ASSERT_EQ(setenv("SYMPILER_FAULT", saved_copy.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("SYMPILER_FAULT"), 0);
  }
  FaultInjector::reset();
}

TEST(FaultInjectorTest, FiresAtTheArmedOrdinalOnly) {
  FaultGuard fg;
  FaultInjector::arm(FaultSite::kPivot, 2, 2);
  EXPECT_FALSE(FaultInjector::should_fail(FaultSite::kPivot));  // pass 1
  EXPECT_TRUE(FaultInjector::should_fail(FaultSite::kPivot));   // pass 2
  EXPECT_TRUE(FaultInjector::should_fail(FaultSite::kPivot));   // pass 3
  EXPECT_FALSE(FaultInjector::should_fail(FaultSite::kPivot));  // pass 4
  // A different site never fires from this trigger.
  EXPECT_FALSE(FaultInjector::should_fail(FaultSite::kAlloc));
  EXPECT_EQ(FaultInjector::hits(FaultSite::kPivot), 4u);
  EXPECT_EQ(FaultInjector::fired(), 2u);

  FaultInjector::reset();
  EXPECT_FALSE(FaultInjector::should_fail(FaultSite::kPivot));
  EXPECT_EQ(FaultInjector::hits(FaultSite::kPivot), 0u);
  EXPECT_EQ(FaultInjector::fired(), 0u);
}

TEST(FaultInjectorTest, SiteNamesRoundTripThroughParse) {
  for (int s = 0; s < util::kFaultSiteCount; ++s) {
    const auto site = static_cast<FaultSite>(s);
    const std::string spec = std::string(FaultInjector::name(site)) + ":1";
    FaultSite parsed{};
    std::uint64_t nth = 0, count = 0;
    ASSERT_TRUE(FaultInjector::parse(spec.c_str(), &parsed, &nth, &count))
        << spec;
    EXPECT_EQ(parsed, site);
  }
}

// -------------------------------------------------------- input validation

TEST(Validation, RejectsNonSquareMatrix) {
  const std::vector<Triplet> trip = {{0, 0, 1.0}, {1, 1, 1.0}, {1, 2, 1.0}};
  const CscMatrix a = CscMatrix::from_triplets(2, 3, trip);
  api::Solver solver;
  try {
    solver.factor(a);
    FAIL() << "expected invalid_matrix_error";
  } catch (const invalid_matrix_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
}

TEST(Validation, RejectsMissingDiagonal) {
  // Column 1 has no (1,1) entry: its first stored row is 2.
  const std::vector<Triplet> trip = {{0, 0, 4.0}, {2, 1, 1.0}, {2, 2, 4.0}};
  const CscMatrix a = CscMatrix::from_triplets(3, 3, trip);
  api::Solver solver;
  try {
    solver.factor(a);
    FAIL() << "expected invalid_matrix_error";
  } catch (const invalid_matrix_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("missing diagonal"),
              std::string::npos);
  }
}

TEST(Validation, RejectsUpperTriangleEntry) {
  const std::vector<Triplet> trip = {
      {0, 0, 4.0}, {0, 1, 1.0}, {1, 1, 4.0}, {2, 2, 4.0}};
  const CscMatrix a = CscMatrix::from_triplets(3, 3, trip);
  api::Solver solver;
  try {
    solver.factor(a);
    FAIL() << "expected invalid_matrix_error";
  } catch (const invalid_matrix_error& e) {
    EXPECT_NE(std::string(e.what()).find("above the diagonal"),
              std::string::npos);
  }
}

TEST(Validation, ValueScanRejectsNaN) {
  CscMatrix a = gen::grid2d_laplacian(6, 6);
  a.values[3] = std::nan("");
  api::SolverConfig config;
  config.options.scan_values = true;
  api::Solver scanning(config, nullptr);
  try {
    scanning.factor(a);
    FAIL() << "expected invalid_matrix_error";
  } catch (const invalid_matrix_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
  // Without the scan the NaN reaches the numeric phase, where the pivot
  // check classifies it as a numeric breakdown — different taxonomy code,
  // same structured surface.
  api::Solver lax;
  EXPECT_THROW(lax.factor(a), Error);
}

TEST(Validation, TriangularSolverRejectsOutOfRangeRhsPattern) {
  api::Solver chol;
  const CscMatrix a = gen::grid2d_laplacian(8, 8);
  chol.factor(a);
  const CscMatrix l = chol.factor_csc();
  const std::vector<index_t> beta = {0, l.cols()};  // second index past n-1
  try {
    const api::TriangularSolver tri(l, beta);
    FAIL() << "expected invalid_matrix_error";
  } catch (const invalid_matrix_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
}

// ----------------------------------------------- pivot faults, serial paths

void check_pivot_fault_then_recovery(const api::SolverConfig& config,
                                     api::ExecutionPath expected_path) {
  FaultGuard fg;
  const CscMatrix a = gen::grid2d_laplacian(16, 16);
  const std::vector<value_t> want = reference_solution(a, config);

  api::Solver solver(config, nullptr);
  solver.factor(a);
  ASSERT_EQ(solver.path(), expected_path);

  FaultInjector::arm(FaultSite::kPivot, 1);
  try {
    solver.factor(a);
    FAIL() << "expected numerical_error";
  } catch (const numerical_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNumericBreakdown);
    EXPECT_GE(e.pivot_index(), 0);
  }
  // The failed factor must not be reachable.
  std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
  EXPECT_THROW(solver.solve(x), invalid_matrix_error);

  // Factor-after-failure on the SAME solver: disarm, refactor, and the
  // solution must be bit-identical to a never-faulted run.
  FaultInjector::reset();
  solver.factor(a);
  EXPECT_FALSE(solver.report().degraded());
  x = gen::dense_rhs(a.cols(), 77);
  solver.solve(x);
  expect_bits_equal(x, want);
}

TEST(FaultSweep, PivotOnSupernodalPath) {
  check_pivot_fault_then_recovery(api::SolverConfig{},
                                  api::ExecutionPath::Supernodal);
}

TEST(FaultSweep, PivotOnSimplicialPath) {
  check_pivot_fault_then_recovery(simplicial_config(),
                                  api::ExecutionPath::Simplicial);
}

// --------------------------------------------------- allocation-site faults

TEST(FaultSweep, AllocFaultDuringColdPlanLeavesSolverReusable) {
  // The executor's workspace grows during prepare_symbolic: an allocation
  // fault there escapes as a structured resource error, and the solver's
  // symbolic state must not be left half-routed (the stale-key hazard) —
  // the next factor() of the same pattern must rebuild cleanly.
  FaultGuard fg;
  const CscMatrix a = gen::grid2d_laplacian(16, 16);
  const std::vector<value_t> want =
      reference_solution(a, api::SolverConfig{});

  api::Solver solver;
  FaultInjector::arm(FaultSite::kAlloc, 1);
  try {
    solver.factor(a);
    FAIL() << "expected resource_exhausted_error";
  } catch (const resource_exhausted_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }

  FaultInjector::reset();
  solver.factor(a);
  std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
  solver.solve(x);
  expect_bits_equal(x, want);
}

// ------------------------------------------------------------- JIT faults

/// PlanCompiler::compile contains a JIT fault at `site`: it returns null,
/// and the plan's slot is failed and names the fault. The failure is
/// permanent: an unfaulted retry returns null without reaching the host
/// compiler (jit-compile, armed at an ordinal that never fires, counts no
/// pass).
template <class Compile>
void expect_compile_fault_contained(FaultSite site, const core::JitSlot& slot,
                                    const Compile& compile) {
  FaultInjector::arm(site, 1);
  EXPECT_EQ(compile(), nullptr);
  EXPECT_EQ(FaultInjector::fired(), 1u);
  EXPECT_TRUE(slot.failed());
  EXPECT_NE(slot.failure().find(FaultInjector::name(site)), std::string::npos)
      << slot.failure();
  FaultInjector::arm(FaultSite::kJitCompile,
                     std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(compile(), nullptr);
  EXPECT_EQ(FaultInjector::hits(FaultSite::kJitCompile), 0u);
  FaultInjector::reset();
}

core::PlannerConfig sequential_planner_config() {
  core::PlannerConfig config;
  config.enable_parallel = false;
  return config;
}

/// Factor + solve through a CholeskyExecutor on `plan`.
std::vector<value_t> executor_solution(
    const std::shared_ptr<const core::CholeskyPlan>& plan, const CscMatrix& a) {
  core::CholeskyExecutor exec(plan);
  exec.factorize(a);
  std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
  exec.solve(x);
  return x;
}

/// A compile fault on a Cholesky plan: contained, and an executor on the
/// faulted plan interprets it bit-identically to one on a fresh plan.
void check_cholesky_compile_fault(FaultSite site) {
  FaultGuard fg;
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  const core::Planner planner(sequential_planner_config());
  const auto faulted =
      std::make_shared<const core::CholeskyPlan>(planner.plan_cholesky(a));
  expect_compile_fault_contained(site, *faulted->jit, [&] {
    return core::PlanCompiler::compile(*faulted);
  });
  const auto fresh =
      std::make_shared<const core::CholeskyPlan>(planner.plan_cholesky(a));
  expect_bits_equal(executor_solution(faulted, a),
                    executor_solution(fresh, a));
}

TEST(FaultSweep, JitCompileFaultDegradesToInterpreter) {
  if (!core::JitModule::compiler_available())
    GTEST_SKIP() << "no host compiler";
  check_cholesky_compile_fault(FaultSite::kJitCompile);
}

TEST(FaultSweep, JitLoadFaultDegradesToInterpreter) {
  if (!core::JitModule::compiler_available())
    GTEST_SKIP() << "no host compiler";
  check_cholesky_compile_fault(FaultSite::kJitLoad);
}

TEST(FaultSweep, JitFaultOnTriangularSolver) {
  if (!core::JitModule::compiler_available())
    GTEST_SKIP() << "no host compiler";
  FaultGuard fg;
  api::Solver chol;
  chol.factor(gen::grid2d_laplacian(12, 12));
  const CscMatrix l = chol.factor_csc();
  const std::vector<value_t> b = gen::sparse_rhs(l.cols(), 6, 31);
  std::vector<index_t> beta;
  for (index_t i = 0; i < l.cols(); ++i)
    if (b[i] != 0.0) beta.push_back(i);
  const core::Planner planner(sequential_planner_config());
  const auto solve = [&](const std::shared_ptr<const core::TriSolvePlan>& p) {
    const core::TriSolveExecutor exec(p, l);
    std::vector<value_t> x = b;
    exec.solve(x);
    return x;
  };
  for (const FaultSite site : {FaultSite::kJitCompile, FaultSite::kJitLoad}) {
    SCOPED_TRACE(FaultInjector::name(site));
    const auto faulted = std::make_shared<const core::TriSolvePlan>(
        planner.plan_trisolve(l, beta));
    expect_compile_fault_contained(site, *faulted->jit, [&] {
      return core::PlanCompiler::compile(*faulted, l);
    });
    const auto fresh = std::make_shared<const core::TriSolvePlan>(
        planner.plan_trisolve(l, beta));
    expect_bits_equal(solve(faulted), solve(fresh));
  }
}

// ------------------------------------------------------ cache-insert fault

TEST(FaultSweep, CacheInsertFaultDegradesToUncachedPlan) {
  FaultGuard fg;
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  auto context = std::make_shared<api::SymbolicContext>();

  FaultInjector::arm(FaultSite::kCacheInsert, 1);
  api::Solver first(api::SolverConfig{}, context);
  first.factor(a);  // plan built and used, insert dropped
  EXPECT_FALSE(first.symbolic_cached());
  std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
  first.solve(x);
  expect_bits_equal(x, reference_solution(a, api::SolverConfig{}));

  // The drop is one-shot: the next cold lookup rebuilds AND inserts, and
  // a third solver hits the cache as usual.
  FaultInjector::reset();
  api::Solver second(api::SolverConfig{}, context);
  second.factor(a);
  api::Solver third(api::SolverConfig{}, context);
  third.factor(a);
  EXPECT_TRUE(third.symbolic_cached());
}

// ------------------------------------------------------- shift-retry ladder

TEST(ShiftLadder, DisabledByDefaultSurfacesThePivot) {
  const CscMatrix a =
      with_diagonal(gen::grid2d_laplacian(8, 8), 0, -0.1);
  api::Solver solver;
  try {
    solver.factor(a);
    FAIL() << "expected numerical_error";
  } catch (const numerical_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNumericBreakdown);
    EXPECT_EQ(e.pivot_index(), 0);
  }
}

TEST(ShiftLadder, RescuesANearSingularDiagonal) {
  const CscMatrix a =
      with_diagonal(gen::grid2d_laplacian(8, 8), 0, -0.1);
  api::SolverConfig config;
  config.options.shift_attempts = 6;
  api::Solver solver(config, nullptr);
  solver.factor(a);  // succeeds on some shifted attempt
  const api::FactorReport& report = solver.report();
  EXPECT_TRUE(report.degraded());
  EXPECT_GT(report.shift_attempts_used, 0);
  EXPECT_GT(report.shift_applied, 0.0);
  EXPECT_EQ(report.last_error.code, ErrorCode::kNumericBreakdown);
  EXPECT_NE(report.to_string().find("diagonal-shift"), std::string::npos);

  // The factorization is of A + sigma*I: solving must produce finite
  // numbers (the exact solution is of the perturbed system, by contract).
  std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
  solver.solve(x);
  for (const value_t v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(ShiftLadder, InjectedTransientPivotRetriesOnce) {
  // A one-shot injected pivot failure plus an enabled ladder: the retry
  // refactors (shifted) and succeeds — a degraded success instead of an
  // escaped exception.
  FaultGuard fg;
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  api::SolverConfig config;
  config.options.shift_attempts = 2;
  api::Solver solver(config, nullptr);
  FaultInjector::arm(FaultSite::kPivot, 1);
  solver.factor(a);
  EXPECT_EQ(solver.report().shift_attempts_used, 1);
  EXPECT_TRUE(solver.report().degraded());
}

TEST(ShiftLadder, GivesUpAfterTheConfiguredAttempts) {
  FaultGuard fg;
  const CscMatrix a = gen::grid2d_laplacian(8, 8);
  api::SolverConfig config;
  config.options.shift_attempts = 2;
  api::Solver solver(config, nullptr);
  // Fire on every pivot pass: no shift can rescue the injected failure.
  FaultInjector::arm(FaultSite::kPivot, 1,
                     std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(solver.factor(a), numerical_error);
  FaultInjector::reset();
  solver.factor(a);  // and the same solver still recovers
  EXPECT_FALSE(solver.report().degraded());
}

// ----------------------------------------------- parallel-path degradation

#ifdef SYMPILER_HAS_OPENMP

TEST(ParallelDegradation, AllocFaultFallsBackToSerialFactor) {
  FaultGuard fg;
  const api::SolverConfig config = parallel_config();
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  const std::vector<value_t> want = reference_solution(a, config);

  api::Solver solver(config, nullptr);
  solver.factor(a);
  ASSERT_EQ(solver.path(), api::ExecutionPath::ParallelSupernodal);

  FaultInjector::arm(FaultSite::kAlloc, 1);
  solver.factor(a);  // degraded success: serial re-execution
  EXPECT_TRUE(solver.report().serial_fallback);
  EXPECT_EQ(solver.report().last_error.code, ErrorCode::kResourceExhausted);
  std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
  solver.solve(x);
  expect_bits_equal(x, want);

  FaultInjector::reset();
  solver.factor(a);
  EXPECT_FALSE(solver.report().degraded());
}

TEST(ParallelDegradation, PivotFaultPropagatesAndSolverRecovers) {
  // Containment, not degradation: a pivot failure inside the parallel
  // region must cross the region boundary as one exception (never
  // std::terminate) and propagate — a serial re-run would hit the same
  // data. Checked at 1, 2, and 4 threads.
  FaultGuard fg;
  const api::SolverConfig config = parallel_config();
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  const std::vector<value_t> want = reference_solution(a, config);
  const int original_threads = omp_get_max_threads();

  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    api::Solver solver(config, nullptr);
    solver.factor(a);
    ASSERT_EQ(solver.path(), api::ExecutionPath::ParallelSupernodal);

    FaultInjector::arm(FaultSite::kPivot, 1);
    EXPECT_THROW(solver.factor(a), numerical_error) << threads << " threads";
    FaultInjector::reset();

    solver.factor(a);
    std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
    solver.solve(x);
    expect_bits_equal(x, want);
  }
  omp_set_num_threads(original_threads);
}

TEST(ParallelDegradation, BatchSolveFallsBackSerially) {
  FaultGuard fg;
  const api::SolverConfig config = parallel_config();
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  const auto n = static_cast<std::size_t>(a.cols());
  const index_t nrhs = 8;

  api::Solver solver(config, nullptr);
  solver.factor(a);
  ASSERT_EQ(solver.path(), api::ExecutionPath::ParallelSupernodal);
  std::vector<value_t> want = gen::dense_rhs(a.cols() * nrhs, 13);
  std::vector<value_t> got = want;
  solver.solve_batch(want, nrhs);  // clean run (grows the packed block)

  FaultInjector::arm(FaultSite::kPivot, 1);
  solver.solve_batch(got, nrhs);
  EXPECT_TRUE(solver.report().serial_fallback);
  expect_bits_equal(got, want);
  (void)n;
}

TEST(ParallelDegradation, SolveAllocFaultFallsBackSerially) {
  // solve() on a parallel plan is the level-set sweep over one packed
  // column. An allocation failure degrades it, never fails it: at the
  // sweep's entry (1st grow: the shared packed column and terms) the
  // sequential blocked driver serves the column; inside the sweep (2nd
  // grow: a thread's tail scratch) the column re-runs serially from its
  // packed copy. Both report serial_fallback with the unfaulted bits.
  FaultGuard fg;
  const api::SolverConfig config = parallel_config();
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  api::Solver solver(config, nullptr);
  solver.factor(a);
  ASSERT_EQ(solver.path(), api::ExecutionPath::ParallelSupernodal);
  const std::vector<value_t> b = gen::dense_rhs(a.cols(), 77);
  std::vector<value_t> want = b;
  solver.solve(want);
  EXPECT_FALSE(solver.report().serial_fallback);

  for (const std::uint64_t nth : {1u, 2u}) {
    solver.factor(a);  // clears the report
    FaultInjector::arm(FaultSite::kAlloc, nth);
    std::vector<value_t> x = b;
    solver.solve(x);
    EXPECT_EQ(FaultInjector::fired(), 1u) << "nth=" << nth;
    EXPECT_TRUE(solver.report().serial_fallback) << "nth=" << nth;
    EXPECT_EQ(solver.report().last_error.code, ErrorCode::kResourceExhausted);
    expect_bits_equal(x, want);
    FaultInjector::reset();
  }
}

TEST(ParallelDegradation, TeamFactoredPivotMatchesSequentialExecutor) {
  // A breaking pivot in the root supernode, which the whole team factors
  // on the last (single-task) level, surfaces as the sequential
  // executor's numerical_error: same pivot index, same pivot value. The
  // pivot fault site is passed once per supernode, on the thread that
  // factors the diagonal block — not once per thread.
  FaultGuard fg;
  const CscMatrix good = gen::grid2d_laplacian(40, 40);
  const CscMatrix bad = with_diagonal(good, good.cols() - 1, -1.0);
  const core::CholeskyPlan plan =
      core::Planner(parallel_config().planner_config()).plan_cholesky(bad);
  ASSERT_EQ(plan.path, api::ExecutionPath::ParallelSupernodal);
  const parallel::AggregateSchedule& agg = plan.agg;
  const index_t nsuper = plan.sets.layout.nsuper();
  ASSERT_EQ(agg.level_ptr[agg.levels()] - agg.level_ptr[agg.levels() - 1], 1);
  ASSERT_GE(agg.task_ptr[agg.tasks()] - agg.task_ptr[agg.tasks() - 1], 2);
  ASSERT_EQ(agg.items.back(), nsuper - 1);  // the root closes that chain

  index_t want_index = -1;
  value_t want_value = 0.0;
  try {
    core::CholeskyExecutor(std::make_shared<const core::CholeskyPlan>(plan))
        .factorize(bad);
    FAIL() << "expected numerical_error from the sequential executor";
  } catch (const numerical_error& e) {
    want_index = e.pivot_index();
    want_value = e.pivot_value();
  }
  EXPECT_EQ(want_index, plan.sets.layout.sn.start[nsuper - 1]);

  const int original_threads = omp_get_max_threads();
  omp_set_num_threads(2);
  std::vector<value_t> panels(
      static_cast<std::size_t>(plan.sets.layout.total_values()));
  try {
    parallel::parallel_cholesky(plan, bad, panels);
    ADD_FAILURE() << "expected numerical_error from the parallel factor";
  } catch (const numerical_error& e) {
    EXPECT_EQ(e.pivot_index(), want_index);
    EXPECT_EQ(e.pivot_value(), want_value);
  }

  FaultInjector::arm(FaultSite::kPivot,
                     std::numeric_limits<std::uint64_t>::max());
  parallel::parallel_cholesky(plan, good, panels);
  EXPECT_EQ(FaultInjector::hits(FaultSite::kPivot),
            static_cast<std::uint64_t>(nsuper));
  omp_set_num_threads(original_threads);
}

TEST(ParallelDegradation, TriSolveFaultsFallBackSerially) {
  FaultGuard fg;
  api::SolverConfig config = parallel_config();
  config.options.vsblock_min_avg_size = 1e9;  // pruned -> parallel trisolve
  api::Solver chol(config, nullptr);
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  chol.factor(a);
  const CscMatrix l = chol.factor_csc();
  std::vector<index_t> beta(static_cast<std::size_t>(l.cols()));
  for (index_t j = 0; j < l.cols(); ++j) beta[j] = j;

  const api::TriangularSolver tri(l, beta, config, nullptr);
  ASSERT_EQ(tri.path(), api::ExecutionPath::ParallelTriSolve);

  const std::vector<value_t> b = gen::dense_rhs(l.cols(), 31);
  std::vector<value_t> want = b;
  tri.solve(want);  // clean parallel run

  // Pivot fault mid-sweep: input restored from the snapshot, serial
  // re-sweep, bit-identical result.
  FaultInjector::arm(FaultSite::kPivot, 1);
  std::vector<value_t> x = b;
  tri.solve(x);
  EXPECT_TRUE(tri.report().serial_fallback);
  expect_bits_equal(x, want);
  FaultInjector::reset();

  // The report covers the most recent solve: a clean one forgets the
  // fallback.
  x = b;
  tri.solve(x);
  EXPECT_FALSE(tri.report().serial_fallback);
  EXPECT_TRUE(tri.report().last_error.ok()) << tri.report().to_string();
  expect_bits_equal(x, want);

  // Allocation fault at the interpreter's entry: x untouched, the
  // sequential executor serves the call.
  FaultInjector::arm(FaultSite::kAlloc, 1);
  x = b;
  tri.solve(x);
  EXPECT_TRUE(tri.report().serial_fallback);
  EXPECT_EQ(tri.report().last_error.code, ErrorCode::kResourceExhausted);
  expect_bits_equal(x, want);
  FaultInjector::reset();

  // Batched variant: the failing block repacks from its pristine input
  // columns and re-sweeps serially.
  const index_t nrhs = 6;
  std::vector<value_t> bs = gen::dense_rhs(l.cols() * nrhs, 41);
  std::vector<value_t> want_batch = bs;
  tri.solve_batch(want_batch, nrhs);
  EXPECT_FALSE(tri.report().serial_fallback);
  FaultInjector::arm(FaultSite::kPivot, 1);
  std::vector<value_t> got_batch = bs;
  tri.solve_batch(got_batch, nrhs);
  EXPECT_TRUE(tri.report().serial_fallback);
  expect_bits_equal(got_batch, want_batch);
}

#endif  // SYMPILER_HAS_OPENMP

// ------------------------------------------------------- environment arming

// These run under the CI fault-injection step (SYMPILER_FAULT=pivot:1 or
// alloc:1) and skip when the variable is absent, so a plain ctest pass
// stays green.
TEST(EnvFault, SpecArmsAndSurfacesAStructuredError) {
  FaultGuard fg;
  if (!FaultInjector::arm_from_env())
    GTEST_SKIP() << "SYMPILER_FAULT not set";
  FaultSite site{};
  std::uint64_t nth = 0, count = 0;
  ASSERT_TRUE(FaultInjector::parse(std::getenv("SYMPILER_FAULT"), &site, &nth,
                                   &count));
  // Store sites only fire when a plan store is attached — give the
  // solver one so SYMPILER_FAULT=store-*:n exercises the persistence
  // write path end-to-end from the environment.
  const bool store_site = site == FaultSite::kStoreWrite ||
                          site == FaultSite::kStoreRead ||
                          site == FaultSite::kStoreChecksum;
  api::SolverConfig config;
  char store_tmpl[] = "/tmp/sympiler-envfault-XXXXXX";
  std::shared_ptr<core::PlanStore> store;  // keeps the registry instance
                                           // (and its counters) alive
                                           // across the facade's use
  if (store_site) {
    ASSERT_NE(mkdtemp(store_tmpl), nullptr);
    config.options.plan_store_dir = store_tmpl;
    store = core::PlanStore::open(config.options.plan_store_dir);
  }
  api::Solver solver(config);
  const CscMatrix a = gen::grid2d_laplacian(16, 16);
  bool threw = false;
  try {
    solver.factor(a);
  } catch (const Error& e) {
    threw = true;
    EXPECT_NE(e.code(), ErrorCode::kOk);
  }
  if (store_site) {
    // Write-behind persistence faults must not degrade the factor: the
    // plan simply stays unpersisted, absorbed into the store counters
    // (rung 4's write direction) — never a throw at the caller.
    store->flush();
    EXPECT_FALSE(threw);
    if (FaultInjector::fired() > 0)
      EXPECT_GE(store->stats().write_failures, 1u);
  } else if (FaultInjector::fired() > 0) {
    EXPECT_TRUE(threw || solver.report().degraded() ||
                !solver.symbolic_cached())
        << "a fired fault must surface as a structured error or a "
           "documented degradation";
  }

  // Recovery on the same solver once disarmed.
  FaultInjector::reset();
  solver.factor(a);
  std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
  solver.solve(x);
  expect_bits_equal(x, reference_solution(a, api::SolverConfig{}));
  if (store_site) {
    std::error_code ec;
    std::filesystem::remove_all(store_tmpl, ec);
  }
}

// ------------------------------------------------- malformed MatrixMarket

TEST(MatrixMarket, RejectsBadBanner) {
  std::istringstream in("%%NotMatrixMarket matrix coordinate real general\n");
  EXPECT_THROW(read_matrix_market(in), invalid_matrix_error);
}

TEST(MatrixMarket, RejectsMissingSizeLine) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% only comments, then EOF\n");
  EXPECT_THROW(read_matrix_market(in), invalid_matrix_error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 3\n"
      "1 1 4.0\n"
      "2 2 4.0\n");
  try {
    (void)read_matrix_market(in);
    FAIL() << "expected invalid_matrix_error";
  } catch (const invalid_matrix_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(MatrixMarket, RejectsMalformedEntryTokens) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 4.0\n"
      "two two nan-sense\n");
  EXPECT_THROW(read_matrix_market(in), invalid_matrix_error);
}

TEST(MatrixMarket, RejectsOutOfRangeCoordinates) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "5 1 4.0\n");
  try {
    (void)read_matrix_market(in);
    FAIL() << "expected invalid_matrix_error";
  } catch (const invalid_matrix_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(MatrixMarket, RejectsDimensionsBeyondIndexRange) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "3000000000 3000000000 1\n"
      "1 1 4.0\n");
  EXPECT_THROW(read_matrix_market(in), invalid_matrix_error);
}

TEST(MatrixMarket, LyingEntryCountDoesNotPreallocate) {
  // A hostile header claiming 10^12 entries must die on the truncated
  // first entry, not on a terabyte reserve.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 1000000000000\n"
      "1 1 4.0\n");
  EXPECT_THROW(read_matrix_market(in), invalid_matrix_error);
}

// -------------------------------------------------------- report plumbing

TEST(FactorReport, CleanRunReportsNoDegradation) {
  api::Solver solver;
  solver.factor(gen::grid2d_laplacian(8, 8));
  EXPECT_FALSE(solver.report().degraded());
  EXPECT_TRUE(solver.report().last_error.ok());
  EXPECT_EQ(solver.report().to_string(), "ok (no degradation)");
}

TEST(FactorReport, StatusToStringCarriesPivotDetail) {
  const Status st{ErrorCode::kNumericBreakdown, "non-positive pivot", 7,
                  -2.5};
  const std::string s = st.to_string();
  EXPECT_NE(s.find("NumericBreakdown"), std::string::npos);
  EXPECT_NE(s.find("index 7"), std::string::npos);
}

}  // namespace
}  // namespace sympiler
