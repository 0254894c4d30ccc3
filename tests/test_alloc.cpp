// Zero-steady-state-allocation regression: once a Solver is warm (plan
// resident, workspaces grown), factor() + solve() + solve_batch() must not
// touch the heap — every numeric scratch lives in a plan-sized
// core::Workspace. Pinned by counting global operator new calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <span>
#include <vector>

#include "api/solver.h"
#include "core/workspace.h"
#include "gen/generators.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

// Global operator new/delete replacements: count every allocation in the
// process (this test binary links the whole library).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sympiler {
namespace {

std::vector<value_t> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Allocations performed by fn().
template <class Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

void check_zero_warm_allocations(const CscMatrix& a,
                                 api::SolverConfig config) {
  api::Solver solver(config, nullptr);
  const auto n = static_cast<std::size_t>(a.cols());
  const index_t nrhs = 40;  // crosses one packed-block boundary
  std::vector<value_t> xs =
      random_vec(n * static_cast<std::size_t>(nrhs), 11);
  std::vector<value_t> x1 = random_vec(n, 12);
  // Warm up: plan built and cached, executor workspaces grown, per-thread
  // batch workspaces grown (and under OpenMP, the thread team spawned).
  solver.factor(a);
  solver.solve(x1);
  solver.solve_batch(xs, nrhs);
  solver.factor(a);
  // Steady state: a warm factor + single solve + batched solve must not
  // allocate at all.
  const std::uint64_t during = allocations_in([&] {
    solver.factor(a);
    solver.solve(x1);
    solver.solve_batch(xs, nrhs);
  });
  EXPECT_EQ(during, 0u) << "warm factor()+solve()+solve_batch() allocated";
}

TEST(ZeroAllocation, WarmSupernodalFactorAndBatchSolve) {
  api::SolverConfig config;
  config.enable_parallel = false;
  check_zero_warm_allocations(gen::grid2d_laplacian(40, 40), config);
}

TEST(ZeroAllocation, WarmSimplicialFactorAndBatchSolve) {
  api::SolverConfig config;
  config.enable_parallel = false;
  config.options.vs_block = false;
  check_zero_warm_allocations(gen::grid2d_laplacian(24, 24), config);
}

TEST(ZeroAllocation, WarmTriangularSolveBatch) {
  api::SolverConfig config;
  config.enable_parallel = false;
  api::Solver chol(config, nullptr);
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  chol.factor(a);
  const CscMatrix l = chol.factor_csc();
  std::vector<index_t> beta(static_cast<std::size_t>(l.cols()));
  for (index_t j = 0; j < l.cols(); ++j) beta[j] = j;
  api::TriangularSolver tri(l, beta, config, nullptr);
  ASSERT_EQ(tri.path(), api::ExecutionPath::BlockedTriSolve);
  const auto n = static_cast<std::size_t>(l.cols());
  const index_t nrhs = 40;
  std::vector<value_t> xs = random_vec(n * static_cast<std::size_t>(nrhs), 3);
  std::vector<value_t> x1 = random_vec(n, 4);
  tri.solve(x1);
  tri.solve_batch(xs, nrhs);  // grows the packed workspace once
  const std::uint64_t during = g_allocations.load();
  tri.solve(x1);
  tri.solve_batch(xs, nrhs);
  EXPECT_EQ(g_allocations.load() - during, 0u)
      << "warm triangular solve/solve_batch allocated";
}

#ifndef NDEBUG
TEST(WorkspaceGuard, ConcurrentBorrowIsLoudInDebugBuilds) {
  // The PR 3 breaking note — solve() borrows the owner's workspace and is
  // not concurrency-safe on one instance — is now a throw-on-concurrent-
  // entry guard, not a README footnote. A second borrow while one is live
  // must throw (always in debug builds; release builds only when opted in
  // below).
  core::Workspace ws;
  const core::Workspace::Borrow first(ws);
  EXPECT_THROW(core::Workspace::Borrow{ws}, resource_exhausted_error);
}
#endif

TEST(WorkspaceGuard, OptInGuardWorksInEveryBuild) {
  // SympilerOptions::guard_workspace promotes the borrow guard to release
  // builds: set_guard(true) must make a concurrent borrow throw a
  // kResourceExhausted error regardless of NDEBUG.
  core::Workspace ws;
  ws.set_guard(true);
  const core::Workspace::Borrow first(ws);
  try {
    const core::Workspace::Borrow second(ws);
    FAIL() << "second borrow did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
}

TEST(WorkspaceGuard, SequentialBorrowsAreFine) {
  core::Workspace ws;
  ws.set_guard(true);
  { const core::Workspace::Borrow one(ws); }
  { const core::Workspace::Borrow two(ws); }  // released, re-borrowable
}

TEST(WorkspaceGuard, GuardOnFacadeGuardsExecutorOfPlanCachedGuardOff) {
  // guard_workspace is not part of the plan key, so a guard-on facade can
  // adopt a plan cached by a guard-off one; its sequential executor must
  // still take the guard from the facade's own config.
  auto context = std::make_shared<api::SymbolicContext>();
  api::SolverConfig off;
  off.enable_parallel = false;
  api::SolverConfig on = off;
  on.options.guard_workspace = true;
  const CscMatrix a = gen::grid2d_laplacian(12, 12);

  api::Solver planner(off, context);
  planner.factor(a);
  api::Solver guarded(on, context);
  guarded.factor(a);
  ASSERT_TRUE(guarded.symbolic_cached());
  ASSERT_FALSE(guarded.plan()->options.guard_workspace);
  EXPECT_TRUE(guarded.workspace_guarded());
#ifdef NDEBUG
  EXPECT_FALSE(planner.workspace_guarded());
#endif

  const CscMatrix l = planner.factor_csc();
  std::vector<index_t> beta(static_cast<std::size_t>(l.cols()));
  for (index_t j = 0; j < l.cols(); ++j) beta[j] = j;
  const api::TriangularSolver tri_planner(l, beta, off, context);
  const api::TriangularSolver tri_guarded(l, beta, on, context);
  ASSERT_TRUE(tri_guarded.symbolic_cached());
  ASSERT_FALSE(tri_guarded.plan()->options.guard_workspace);
  EXPECT_TRUE(tri_guarded.workspace_guarded());
#ifdef NDEBUG
  EXPECT_FALSE(tri_planner.workspace_guarded());
#endif
}

#ifdef SYMPILER_HAS_OPENMP
TEST(ZeroAllocation, WarmParallelFactorAndBatchSolve) {
  // The level-set parallel interpreter keeps one grow-only workspace per
  // OS thread; once the team and workspaces are warm, a parallel factor +
  // batched solve is allocation-free too (OpenMP runtime included — it
  // reuses its thread team after the warm-up region).
  api::SolverConfig config;
  config.enable_parallel = true;
  config.parallel_min_supernodes = 1;
  config.parallel_min_avg_level_width = 0.0;
  check_zero_warm_allocations(gen::grid2d_laplacian(40, 40), config);
}

TEST(ZeroAllocation, WarmParallelTriangularSolveBatch) {
  // Level-set parallel trisolve: the privatized terms buffer is pre-grown
  // at construction and the packed batch block on the first solve_batch;
  // warm parallel solves touch the heap not at all.
  api::SolverConfig config;
  config.enable_parallel = true;
  config.parallel_min_avg_level_width = 0.0;
  config.options.vsblock_min_avg_size = 1e9;  // pruned -> parallel trisolve
  api::Solver chol(config, nullptr);
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  chol.factor(a);
  const CscMatrix l = chol.factor_csc();
  std::vector<index_t> beta(static_cast<std::size_t>(l.cols()));
  for (index_t j = 0; j < l.cols(); ++j) beta[j] = j;
  api::TriangularSolver tri(l, beta, config, nullptr);
  ASSERT_EQ(tri.path(), api::ExecutionPath::ParallelTriSolve);
  const auto n = static_cast<std::size_t>(l.cols());
  const index_t nrhs = 40;
  std::vector<value_t> xs = random_vec(n * static_cast<std::size_t>(nrhs), 5);
  std::vector<value_t> x1 = random_vec(n, 6);
  tri.solve(x1);
  tri.solve_batch(xs, nrhs);  // grows the packed block + thread team once
  const std::uint64_t during = allocations_in([&] {
    tri.solve(x1);
    tri.solve_batch(xs, nrhs);
  });
  EXPECT_EQ(during, 0u) << "warm parallel triangular solves allocated";
}
#endif

}  // namespace
}  // namespace sympiler
