// Tests for the ExecutionPlan / Planner layer: path selection from
// profitability evidence, bit-identity between plan-driven executors and
// the direct-call paths (simplicial, supernodal, parallel), plan byte
// accounting, and the shared-context regression the plan refactor fixes —
// a warm factor() does zero schedule work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

#include "api/solver.h"
#include "core/cholesky_executor.h"
#include "core/execution_plan.h"
#include "core/plan_serde.h"
#include "core/planner.h"
#include "core/supernode_body.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "graph/symbolic.h"
#include "parallel/levelset.h"
#include "solvers/simplicial.h"
#include "solvers/supernodal.h"
#include "sparse/ops.h"
#include "support/plans.h"
#include "support/symbolic_oracles.h"

namespace sympiler {
namespace {

using core::CholeskyPlan;
using core::ExecutionPath;
using core::Planner;
using core::PlannerConfig;
using core::TriSolvePlan;

/// What coarsen_schedule=false plans: the identity aggregate — one
/// singleton task per item, no bundles, one barrier level per flat level.
void expect_identity_aggregate(const parallel::AggregateSchedule& agg,
                               const core::PlanEvidence& ev) {
  EXPECT_EQ(agg.tasks(), static_cast<index_t>(agg.items.size()));
  EXPECT_EQ(agg.bundles(), 0);
  EXPECT_EQ(agg.levels(), ev.levels);
  EXPECT_EQ(ev.agg_levels, ev.levels);
}

PlannerConfig supernodal_config() {
  PlannerConfig config;
  config.options.vsblock_min_avg_size = 0.0;
  config.options.vsblock_min_avg_width = 0.0;
  config.enable_parallel = false;
  return config;
}

/// Supernodes in the longest task of a single-task aggregate level — the
/// chain the parallel factor's whole team works through one supernode at
/// a time; 0 when every level holds several tasks.
index_t team_factored_chain(const parallel::AggregateSchedule& agg) {
  index_t longest = 0;
  for (index_t lv = 0; lv < agg.levels(); ++lv) {
    const index_t t = agg.level_ptr[lv];
    if (agg.level_ptr[lv + 1] - t == 1)
      longest = std::max(longest, agg.task_ptr[t + 1] - agg.task_ptr[t]);
  }
  return longest;
}

// ------------------------------------------------------------- planning

TEST(Planner, PicksSimplicialWhenVsBlockUnprofitable) {
  const CscMatrix a = gen::random_spd(80, 1.5, 3);
  PlannerConfig config;
  config.options.vsblock_min_avg_size = 1e9;  // force the gate shut
  const CholeskyPlan plan = Planner(config).plan_cholesky(a);
  EXPECT_EQ(plan.path, ExecutionPath::Simplicial);
  EXPECT_FALSE(plan.evidence.vs_block_profitable);
  EXPECT_TRUE(plan.schedule.empty());
  EXPECT_TRUE(plan.agg.empty());
}

TEST(Planner, PicksSupernodalWhenProfitableAndParallelDisabled) {
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  const CholeskyPlan plan = Planner(supernodal_config()).plan_cholesky(a);
  EXPECT_EQ(plan.path, ExecutionPath::Supernodal);
  EXPECT_TRUE(plan.evidence.vs_block_profitable);
  EXPECT_GT(plan.evidence.supernodes, 0);
  EXPECT_TRUE(plan.schedule.empty());  // no schedule unless parallel
  EXPECT_TRUE(plan.agg.empty());
}

TEST(Planner, ParallelPathCarriesScheduleOnlyUnderOpenMp) {
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  PlannerConfig config = supernodal_config();
  config.enable_parallel = true;
  config.parallel_min_supernodes = 1;
  config.parallel_min_avg_level_width = 0.0;
  const CholeskyPlan plan = Planner(config).plan_cholesky(a);
  // One schedule format: the plan carries the aggregate only, the flat
  // levels survive as evidence.
  EXPECT_TRUE(plan.schedule.empty());
  if (Planner::parallel_enabled()) {
    EXPECT_EQ(plan.path, ExecutionPath::ParallelSupernodal);
    EXPECT_GT(plan.evidence.levels, 0);
    EXPECT_GT(plan.evidence.avg_level_width, 0.0);
    // The schedule covers every supernode exactly once.
    EXPECT_EQ(static_cast<index_t>(plan.agg.items.size()),
              plan.sets.layout.nsuper());
  } else {
    EXPECT_EQ(plan.path, ExecutionPath::Supernodal);
    EXPECT_TRUE(plan.agg.empty());
  }
}

TEST(Planner, GateConfigParticipatesInPlanKey) {
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  PlannerConfig base;
  PlannerConfig gated = base;
  gated.parallel_min_supernodes = 7;
  EXPECT_NE(Planner(base).cholesky_key(a), Planner(gated).cholesky_key(a));
  // And the planner key differs from the raw pattern key (gates folded in).
  EXPECT_NE(Planner(base).cholesky_key(a),
            core::cholesky_pattern_key(a, base.options));
}

TEST(Planner, PlanBytesAccountForSetsAndSchedule) {
  const CscMatrix a = gen::grid2d_laplacian(25, 25);
  const CholeskyPlan plan = Planner(supernodal_config()).plan_cholesky(a);
  EXPECT_GT(plan.bytes(), plan.sets.bytes());
  EXPECT_GE(plan.sets.bytes(),
            plan.sets.a_pattern.bytes() + plan.sets.layout.bytes());
  const std::string text = plan.summary();
  EXPECT_NE(text.find("supernodal"), std::string::npos);
  EXPECT_NE(text.find("plan bytes"), std::string::npos);
}

// ------------------------------------- plan-driven executor bit identity

TEST(ExecutionPlan, SimplicialInterpreterMatchesDirectPathBitwise) {
  const CscMatrix a = gen::random_spd(120, 2.0, 5);
  PlannerConfig config;
  config.options.vsblock_min_avg_size = 1e9;
  config.enable_parallel = false;
  auto plan = std::make_shared<const CholeskyPlan>(
      Planner(config).plan_cholesky(a));
  ASSERT_EQ(plan->path, ExecutionPath::Simplicial);

  core::CholeskyExecutor from_plan(plan);
  from_plan.factorize(a);
  core::CholeskyExecutor direct(a, config.options);
  direct.factorize(a);
  ASSERT_TRUE(from_plan.factor_csc().equals(direct.factor_csc()));

  std::vector<value_t> x1 = gen::dense_rhs(a.cols(), 3);
  std::vector<value_t> x2 = x1;
  from_plan.solve(x1);
  direct.solve(x2);
  for (index_t i = 0; i < a.cols(); ++i) ASSERT_EQ(x1[i], x2[i]) << i;
}

TEST(ExecutionPlan, SupernodalInterpreterMatchesDirectPathBitwise) {
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  const PlannerConfig config = supernodal_config();
  auto plan = std::make_shared<const CholeskyPlan>(
      Planner(config).plan_cholesky(a));
  ASSERT_EQ(plan->path, ExecutionPath::Supernodal);

  core::CholeskyExecutor from_plan(plan);
  from_plan.factorize(a);
  core::CholeskyExecutor direct(a, config.options);
  direct.factorize(a);
  ASSERT_TRUE(from_plan.factor_csc().equals(direct.factor_csc()));

  std::vector<value_t> x1 = gen::dense_rhs(a.cols(), 9);
  std::vector<value_t> x2 = x1;
  from_plan.solve(x1);
  direct.solve(x2);
  for (index_t i = 0; i < a.cols(); ++i) ASSERT_EQ(x1[i], x2[i]) << i;
}

TEST(ExecutionPlan, ParallelInterpreterMatchesDirectCallBitwise) {
  // The plan-driven parallel_cholesky over the identity aggregate must
  // reproduce the direct (sets, schedule) call bit for bit — in every
  // build: without OpenMP both run the same sequential interpretation.
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  const auto plan =
      std::make_shared<const CholeskyPlan>(support::parallel_cholesky_plan(
          Planner(supernodal_config()).plan_cholesky(a), a,
          /*coarsen=*/false));

  std::vector<value_t> panels_plan(
      static_cast<std::size_t>(plan->sets.layout.total_values()), 0.0);
  std::vector<value_t> panels_direct = panels_plan;
  parallel::parallel_cholesky(*plan, a, panels_plan);
  parallel::parallel_cholesky(plan->sets, plan->agg, a, panels_direct);
  ASSERT_EQ(panels_plan, panels_direct);

  // And the result is a correct factorization.
  const CscMatrix l = solvers::panels_to_csc(plan->sets.layout, panels_plan,
                                             symbolic_cholesky(a).l_pattern);
  EXPECT_LT(llt_residual_inf_norm(l, a), 1e-8);
}

TEST(ExecutionPlan, FacadeParallelPathMatchesDirectParallelCallBitwise) {
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  api::SolverConfig cfg;
  cfg.options.vsblock_min_avg_size = 0.0;
  cfg.options.vsblock_min_avg_width = 0.0;
  cfg.parallel_min_supernodes = 1;
  cfg.parallel_min_avg_level_width = 0.0;
  api::Solver solver(cfg, std::make_shared<api::SymbolicContext>());
  solver.factor(a);

  if (!core::Planner::parallel_enabled()) {
    EXPECT_EQ(solver.path(), ExecutionPath::Supernodal);
    return;  // parallel plans are never built in sequential builds
  }
  ASSERT_EQ(solver.path(), ExecutionPath::ParallelSupernodal);
  const CholeskyPlan& plan = *solver.plan();
  std::vector<value_t> panels(
      static_cast<std::size_t>(plan.sets.layout.total_values()), 0.0);
  parallel::parallel_cholesky(plan, a, panels);
  ASSERT_TRUE(solver.factor_csc().equals(solvers::panels_to_csc(
      plan.sets.layout, panels, symbolic_cholesky(a).l_pattern)));
}

// ------------------------------------------------- trisolve plan paths

TEST(ExecutionPlan, TriSolveInterpreterMatchesDirectPathBitwise) {
  const CscMatrix a = gen::grid2d_laplacian(25, 25);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix l = chol.factor();
  const index_t n = l.cols();
  const std::vector<value_t> b = gen::sparse_rhs(n, 5, 13);
  std::vector<index_t> beta;
  for (index_t i = 0; i < n; ++i)
    if (b[i] != 0.0) beta.push_back(i);

  for (const bool force_blocked : {false, true}) {
    PlannerConfig config;
    config.enable_parallel = false;
    if (force_blocked) {
      config.options.vsblock_min_avg_size = 0.0;
      config.options.vsblock_min_avg_width = 0.0;
    } else {
      config.options.vsblock_min_avg_size = 1e9;
    }
    auto plan = std::make_shared<const TriSolvePlan>(
        Planner(config).plan_trisolve(l, beta));
    EXPECT_EQ(plan->path, force_blocked ? ExecutionPath::BlockedTriSolve
                                        : ExecutionPath::PrunedTriSolve);

    core::TriSolveExecutor from_plan(plan, l);
    core::TriSolveExecutor direct(l, beta, config.options);
    std::vector<value_t> x1(b), x2(b);
    from_plan.solve(x1);
    direct.solve(x2);
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(x1[i], x2[i]) << "blocked=" << force_blocked << " at " << i;
  }
}

TEST(ExecutionPlan, DenseRhsTriSolvePlanStaysCorrectOnEveryPath) {
  // With a dense RHS and the gates open, OpenMP builds plan the
  // ParallelTriSolve path (atomic updates: correct, not bit-stable);
  // sequential builds stay pruned. Either way the facade must solve
  // L x = b correctly.
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix l = chol.factor();
  const index_t n = l.cols();
  std::vector<index_t> beta(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) beta[static_cast<std::size_t>(i)] = i;

  api::SolverConfig cfg;
  cfg.options.vsblock_min_avg_size = 1e9;  // keep VS-Block out of the way
  cfg.parallel_min_avg_level_width = 0.0;
  api::TriangularSolver facade(l, beta, cfg,
                               std::make_shared<api::SymbolicContext>());
  if (core::Planner::parallel_enabled()) {
    EXPECT_EQ(facade.path(), ExecutionPath::ParallelTriSolve);
    EXPECT_FALSE(facade.plan()->agg.empty());
    EXPECT_TRUE(facade.plan()->schedule.empty());
  } else {
    EXPECT_EQ(facade.path(), ExecutionPath::PrunedTriSolve);
  }

  const std::vector<value_t> b = gen::dense_rhs(n, 21);
  std::vector<value_t> x(b);
  facade.solve(x);
  // Residual of L x = b.
  double err = 0.0;
  for (index_t j = 0; j < n; ++j) {
    double row = 0.0;
    for (index_t i = 0; i < n; ++i) row += l.at(j, i) * x[i];
    err = std::max(err, std::abs(row - b[static_cast<std::size_t>(j)]));
  }
  EXPECT_LT(err, 1e-8);
}

// ------------------------- parallel determinism (level-private updates)

/// Lower-triangular factor with maximally racy levels: columns 0..n-3 are
/// mutually independent (one wide level) and every one of them updates the
/// two shared rows n-2 and n-1. Under the old atomic scheme the update
/// order — and hence the result bits — depended on thread interleaving;
/// the level-private slots must replay the serial order exactly.
CscMatrix racy_arrowhead_lower(index_t n) {
  std::vector<Triplet> trips;
  for (index_t j = 0; j < n; ++j)
    trips.push_back({j, j, 2.0 + 0.01 * static_cast<value_t>(j)});
  for (index_t j = 0; j < n - 2; ++j) {
    trips.push_back({n - 2, j, 0.5 / (1.0 + static_cast<value_t>(j))});
    trips.push_back({n - 1, j, 0.25 / (2.0 + static_cast<value_t>(j))});
  }
  trips.push_back({n - 1, n - 2, 0.75});
  return CscMatrix::from_triplets(n, n, trips);
}

std::shared_ptr<const TriSolvePlan> racy_parallel_plan(const CscMatrix& l,
                                                       bool coarsen = true) {
  PlannerConfig config;
  config.options.vsblock_min_avg_size = 1e9;  // keep VS-Block out of the way
  config.enable_parallel = true;
  config.parallel_min_supernodes = 1;
  config.parallel_min_avg_level_width = 0.0;
  config.coarsen_schedule = coarsen;
  std::vector<index_t> beta(static_cast<std::size_t>(l.cols()));
  for (index_t i = 0; i < l.cols(); ++i) beta[static_cast<std::size_t>(i)] = i;
  return std::make_shared<const TriSolvePlan>(
      Planner(config).plan_trisolve(l, beta));
}

TEST(ParallelDeterminism, TrisolveBitIdenticalToSerialAtOneTwoFourThreads) {
  const index_t n = 257;
  const CscMatrix l = racy_arrowhead_lower(n);
  const auto plan = racy_parallel_plan(l);
  if (!Planner::parallel_enabled()) {
    EXPECT_EQ(plan->path, ExecutionPath::PrunedTriSolve);
    return;  // sequential builds never plan the parallel path
  }
  ASSERT_EQ(plan->path, ExecutionPath::ParallelTriSolve);
  // The racy structure is really there: one level holds all n-2
  // independent columns, each updating the shared rows n-2 and n-1.
  const parallel::AggregateSchedule& agg = plan->agg;
  ASSERT_GE(agg.levels(), 2);
  EXPECT_EQ(agg.task_ptr[agg.level_ptr[1]] - agg.task_ptr[agg.level_ptr[0]],
            n - 2);
  EXPECT_FALSE(plan->update_map.empty());

  // Serial reference: the sequential pruned interpretation of the same
  // plan (what solve() runs in non-OpenMP builds).
  core::TriSolveExecutor serial(plan, l);
  const std::vector<value_t> b = gen::dense_rhs(n, 33);
  std::vector<value_t> x_ref(b);
  serial.solve(x_ref);

  core::Workspace ws;
  for (const int threads : {1, 2, 4}) {
#ifdef SYMPILER_HAS_OPENMP
    omp_set_num_threads(threads);
#endif
    // Twice per thread count: run-to-run determinism at a fixed count,
    // and bit identity with the serial solve across counts.
    for (int run = 0; run < 2; ++run) {
      std::vector<value_t> x(b);
      parallel::parallel_trisolve(l, *plan, x, ws);
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(x[static_cast<std::size_t>(i)],
                  x_ref[static_cast<std::size_t>(i)])
            << "threads=" << threads << " run=" << run << " row " << i;
    }
  }
}

TEST(ParallelDeterminism, TrisolveBatchBitIdenticalToLoopedSerialAt4Threads) {
  const index_t n = 181;
  const CscMatrix l = racy_arrowhead_lower(n);
  const auto plan = racy_parallel_plan(l);
  if (!Planner::parallel_enabled()) return;
  ASSERT_EQ(plan->path, ExecutionPath::ParallelTriSolve);
#ifdef SYMPILER_HAS_OPENMP
  omp_set_num_threads(4);
#endif
  core::TriSolveExecutor serial(plan, l);
  core::Workspace ws;
  for (const index_t nrhs : {1, 5, 40}) {
    std::vector<value_t> base;
    for (index_t r = 0; r < nrhs; ++r) {
      const std::vector<value_t> col = gen::dense_rhs(n, 50 + r);
      base.insert(base.end(), col.begin(), col.end());
    }
    std::vector<value_t> looped = base;
    for (index_t r = 0; r < nrhs; ++r)
      serial.solve(std::span<value_t>(looped).subspan(
          static_cast<std::size_t>(r) * n, static_cast<std::size_t>(n)));
    std::vector<value_t> batched = base;
    parallel::parallel_trisolve_batch(l, *plan, batched, nrhs, ws);
    for (std::size_t t = 0; t < looped.size(); ++t)
      ASSERT_EQ(batched[t], looped[t]) << "nrhs=" << nrhs << " flat " << t;
  }
}

TEST(ParallelDeterminism, CholeskyAndBatchSolveStableAcrossThreadCounts) {
  // Level-set parallel Cholesky + the blocked level-set batch solve on a
  // pattern whose sibling supernodes share ancestor rows. Every thread
  // count must produce the same bits, twice.
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  api::SolverConfig cfg;
  cfg.options.vsblock_min_avg_size = 0.0;
  cfg.options.vsblock_min_avg_width = 0.0;
  cfg.parallel_min_supernodes = 1;
  cfg.parallel_min_avg_level_width = 0.0;
  api::Solver solver(cfg, std::make_shared<api::SymbolicContext>());
  if (!Planner::parallel_enabled()) return;

  const auto n = static_cast<std::size_t>(a.cols());
  const index_t nrhs = 7;
  std::vector<value_t> base;
  for (index_t r = 0; r < nrhs; ++r) {
    const std::vector<value_t> col = gen::dense_rhs(a.cols(), 70 + r);
    base.insert(base.end(), col.begin(), col.end());
  }
  CscMatrix l_ref;
  std::vector<value_t> x_ref;
  bool have_ref = false;
  for (const int threads : {1, 2, 3, 4}) {
#ifdef SYMPILER_HAS_OPENMP
    omp_set_num_threads(threads);
#endif
    for (int run = 0; run < 2; ++run) {
      solver.factor(a);
      ASSERT_EQ(solver.path(), ExecutionPath::ParallelSupernodal);
      const CscMatrix l = solver.factor_csc();
      std::vector<value_t> x = base;
      solver.solve_batch(x, nrhs);
      if (!have_ref) {
        l_ref = l;
        x_ref = x;
        have_ref = true;
        // Looped single solves must give the batch bits too.
        std::vector<value_t> looped = base;
        for (index_t r = 0; r < nrhs; ++r)
          solver.solve(std::span<value_t>(looped).subspan(
              static_cast<std::size_t>(r) * n, n));
        ASSERT_EQ(looped, x_ref);
        continue;
      }
      ASSERT_TRUE(l.equals(l_ref)) << "threads=" << threads << " run=" << run;
      ASSERT_EQ(x, x_ref) << "threads=" << threads << " run=" << run;
    }
  }
}

TEST(ParallelDeterminism, ParallelCholeskyEqualsSequentialExecutorBitwise) {
  // Contract 1: the level-set factor and the sequential executor run one
  // supernode body, so their factors agree bit for bit at every team
  // size, including on the single-task level the whole team shares.
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  const auto seq_plan = std::make_shared<const CholeskyPlan>(
      Planner(supernodal_config()).plan_cholesky(a));
  ASSERT_EQ(seq_plan->path, ExecutionPath::Supernodal);
  const CholeskyPlan par_plan =
      support::parallel_cholesky_plan(*seq_plan, a, /*coarsen=*/true);
  ASSERT_GE(team_factored_chain(par_plan.agg), 2);

  core::CholeskyExecutor sequential(seq_plan);
  sequential.factorize(a);
  const CscMatrix want = sequential.factor_csc();
  const CscMatrix lp = symbolic_cholesky(a).l_pattern;
  const auto values =
      static_cast<std::size_t>(par_plan.sets.layout.total_values());
  for (const int threads : {1, 2, 3, 4}) {
#ifdef SYMPILER_HAS_OPENMP
    omp_set_num_threads(threads);
#endif
    std::vector<value_t> panels(values, -1.0);
    parallel::parallel_cholesky(par_plan, a, panels);
    const CscMatrix got =
        solvers::panels_to_csc(par_plan.sets.layout, panels, lp);
    ASSERT_TRUE(got.same_pattern(want));
    ASSERT_EQ(std::memcmp(got.values.data(), want.values.data(),
                          want.values.size() * sizeof(value_t)),
              0)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, SolveEqualsSerialPanelSolvesAtOneToFourThreads) {
  // Solver::solve on a parallel plan is the level-set sweep over one
  // packed column: bit-identical to the serial panel solves on the same
  // panels at every team size.
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  api::SolverConfig cfg;
  cfg.options.vsblock_min_avg_size = 0.0;
  cfg.options.vsblock_min_avg_width = 0.0;
  cfg.parallel_min_supernodes = 1;
  cfg.parallel_min_avg_level_width = 0.0;
  api::Solver solver(cfg, std::make_shared<api::SymbolicContext>());
  if (!Planner::parallel_enabled()) return;

  const std::vector<value_t> b = gen::dense_rhs(a.cols(), 91);
  const CscMatrix lp = symbolic_cholesky(a).l_pattern;
  for (const int threads : {1, 2, 3, 4}) {
#ifdef SYMPILER_HAS_OPENMP
    omp_set_num_threads(threads);
#endif
    solver.factor(a);
    ASSERT_EQ(solver.path(), ExecutionPath::ParallelSupernodal);
    const CholeskyPlan& plan = *solver.plan();
    ASSERT_GE(team_factored_chain(plan.agg), 2);
    std::vector<value_t> panels(
        static_cast<std::size_t>(plan.sets.layout.total_values()));
    parallel::parallel_cholesky(plan, a, panels);
    ASSERT_TRUE(solver.factor_csc().equals(
        solvers::panels_to_csc(plan.sets.layout, panels, lp)));

    std::vector<value_t> want = b;
    solvers::panel_forward_solve(plan.sets.layout, panels, want);
    solvers::panel_backward_solve(plan.sets.layout, panels, want);
    std::vector<value_t> x = b;
    solver.solve(x);
    EXPECT_FALSE(solver.report().serial_fallback);
    ASSERT_EQ(std::memcmp(x.data(), want.data(), x.size() * sizeof(value_t)),
              0)
        << "threads=" << threads;
  }
}

// ----------------------- schedule coarsening (chains + SIMD bundles)

/// Full-band lower-triangular matrix: column j depends on every one of the
/// bw previous columns, so the flat level schedule is one column per level
/// (n levels, n - 1 barriers) — the worst case chain fusion exists for.
CscMatrix banded_full_lower(index_t n, index_t bw) {
  std::vector<Triplet> trips;
  for (index_t j = 0; j < n; ++j) {
    trips.push_back({j, j, 3.0 + 0.01 * static_cast<value_t>(j)});
    for (index_t i = j + 1; i < std::min<index_t>(n, j + bw + 1); ++i)
      trips.push_back(
          {i, j, 0.5 / (1.0 + static_cast<value_t>(i - j))});
  }
  return CscMatrix::from_triplets(n, n, trips);
}

TEST(ScheduleCoarsening, FullBandChainCollapsesToOneAggregateLevel) {
  const index_t n = 96;
  const CscMatrix l = banded_full_lower(n, 5);
  const auto plan = racy_parallel_plan(l);
  if (!Planner::parallel_enabled()) return;
  ASSERT_EQ(plan->path, ExecutionPath::ParallelTriSolve);
  // Flat: one column per level — the barrier cascade coarsening removes.
  ASSERT_EQ(plan->evidence.levels, n);
  // Coarsened: the whole solve is one sequential chain, zero barriers.
  const auto& agg = plan->agg;
  ASSERT_FALSE(agg.empty());
  EXPECT_EQ(agg.levels(), 1);
  EXPECT_EQ(agg.tasks(), 1);
  EXPECT_EQ(agg.bundle[0], 0);
  ASSERT_EQ(static_cast<index_t>(agg.items.size()), n);
  for (index_t k = 0; k < n; ++k)
    ASSERT_EQ(agg.items[static_cast<std::size_t>(k)], k) << k;
  EXPECT_EQ(plan->evidence.agg_levels, 1);
  EXPECT_EQ(plan->evidence.agg_tasks, 1);
  EXPECT_EQ(plan->evidence.agg_bundles, 0);
}

TEST(ScheduleCoarsening, ArrowheadBundlesWideLevelAndFusesSharedTail) {
  const index_t n = 257;  // 255 independent same-shape columns = 31x8 + 7
  const CscMatrix l = racy_arrowhead_lower(n);
  const auto plan = racy_parallel_plan(l);
  if (!Planner::parallel_enabled()) return;
  const auto& agg = plan->agg;
  ASSERT_FALSE(agg.empty());
  ASSERT_EQ(agg.levels(), 2);
  ASSERT_EQ(static_cast<index_t>(agg.items.size()), n);

  // Level 0: the n - 2 independent columns share one sparsity shape
  // (no incoming terms, two updates), so they coarsen into width-8 SIMD
  // bundles plus one >= kBundleMin tail bundle — no singletons.
  const index_t t1 = agg.level_ptr[1];
  EXPECT_EQ(agg.task_ptr[t1] - agg.task_ptr[agg.level_ptr[0]], n - 2);
  for (index_t t = agg.level_ptr[0]; t < t1; ++t) {
    EXPECT_EQ(agg.bundle[static_cast<std::size_t>(t)], 1) << "task " << t;
    const index_t w = agg.task_ptr[t + 1] - agg.task_ptr[t];
    EXPECT_GE(w, parallel::kBundleMin) << "task " << t;
    EXPECT_LE(w, parallel::kBundleMax) << "task " << t;
  }
  EXPECT_EQ(agg.bundles(), (n - 2) / parallel::kBundleMax + 1);

  // Level 1: the two shared tail columns fuse into one chain — column
  // n-1's only level-1 dependence is n-2, the chain's last member.
  ASSERT_EQ(agg.level_ptr[2] - t1, 1);
  EXPECT_EQ(agg.bundle[static_cast<std::size_t>(t1)], 0);
  ASSERT_EQ(agg.task_ptr[t1 + 1] - agg.task_ptr[t1], 2);
  EXPECT_EQ(agg.items[static_cast<std::size_t>(agg.task_ptr[t1])], n - 2);
  EXPECT_EQ(agg.items[static_cast<std::size_t>(agg.task_ptr[t1]) + 1], n - 1);
  EXPECT_EQ(plan->evidence.agg_bundles, agg.bundles());
}

TEST(ScheduleCoarsening, CoarsenedTrisolveBitIdenticalToIdentityAndSerial) {
  // The coarsening contract: chains, bundles, and the compacted slot map
  // change scheduling and data movement only — at 1/2/4 threads both the
  // coarsened and the identity aggregate must reproduce the serial
  // solve's exact bits (ASSERT_EQ on doubles, no tolerance).
  std::vector<CscMatrix> factors;
  factors.push_back(racy_arrowhead_lower(257));   // bundle-heavy
  factors.push_back(banded_full_lower(180, 7));   // chain-heavy
  for (const CscMatrix& l : factors) {
    const index_t n = l.cols();
    const auto coarse = racy_parallel_plan(l, /*coarsen=*/true);
    const auto identity = racy_parallel_plan(l, /*coarsen=*/false);
    if (!Planner::parallel_enabled()) {
      EXPECT_EQ(coarse->path, ExecutionPath::PrunedTriSolve);
      return;
    }
    ASSERT_EQ(coarse->path, ExecutionPath::ParallelTriSolve);
    ASSERT_EQ(identity->path, ExecutionPath::ParallelTriSolve);
    ASSERT_FALSE(coarse->agg.empty());
    expect_identity_aggregate(identity->agg, identity->evidence);

    core::TriSolveExecutor serial(coarse, l);
    const std::vector<value_t> b = gen::dense_rhs(n, 91);
    std::vector<value_t> x_ref(b);
    serial.solve(x_ref);

    core::Workspace ws_c, ws_i;
    for (const int threads : {1, 2, 4}) {
#ifdef SYMPILER_HAS_OPENMP
      omp_set_num_threads(threads);
#endif
      std::vector<value_t> x_c(b), x_i(b);
      parallel::parallel_trisolve(l, *coarse, x_c, ws_c);
      parallel::parallel_trisolve(l, *identity, x_i, ws_i);
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(x_c[static_cast<std::size_t>(i)],
                  x_ref[static_cast<std::size_t>(i)])
            << "coarse threads=" << threads << " row " << i;
        ASSERT_EQ(x_i[static_cast<std::size_t>(i)],
                  x_ref[static_cast<std::size_t>(i)])
            << "identity threads=" << threads << " row " << i;
      }
      // Batch path: the coarsened multi-RHS interpreter too.
      const index_t nrhs = 3;
      std::vector<value_t> base;
      for (index_t r = 0; r < nrhs; ++r) {
        const std::vector<value_t> col = gen::dense_rhs(n, 120 + r);
        base.insert(base.end(), col.begin(), col.end());
      }
      std::vector<value_t> looped = base;
      for (index_t r = 0; r < nrhs; ++r)
        serial.solve(std::span<value_t>(looped).subspan(
            static_cast<std::size_t>(r) * n, static_cast<std::size_t>(n)));
      std::vector<value_t> batched = base;
      parallel::parallel_trisolve_batch(l, *coarse, batched, nrhs, ws_c);
      for (std::size_t t = 0; t < looped.size(); ++t)
        ASSERT_EQ(batched[t], looped[t]) << "threads=" << threads;
    }
  }
}

TEST(ScheduleCoarsening, CoarsenedCholeskyBitIdenticalToIdentityAcrossThreads) {
  // Supernodal chain fusion on the factorization and both panel-solve
  // sweeps: coarsen on vs off, 1/2/4 threads, all one set of bits. The
  // banded pattern makes thin levels (chain-heavy), the grid wide ones.
  std::vector<CscMatrix> mats;
  mats.push_back(gen::grid2d_laplacian(40, 40));
  mats.push_back(gen::banded_spd(180, 9, 3));
  for (const CscMatrix& a : mats) {
    api::SolverConfig cfg;
    cfg.options.vsblock_min_avg_size = 0.0;
    cfg.options.vsblock_min_avg_width = 0.0;
    cfg.parallel_min_supernodes = 1;
    cfg.parallel_min_avg_level_width = 0.0;
    api::SolverConfig cfg_identity = cfg;
    cfg_identity.coarsen_schedule = false;
    api::Solver on(cfg, std::make_shared<api::SymbolicContext>());
    api::Solver off(cfg_identity, std::make_shared<api::SymbolicContext>());
    if (!Planner::parallel_enabled()) return;

    const auto n = static_cast<std::size_t>(a.cols());
    const index_t nrhs = 5;
    std::vector<value_t> base;
    for (index_t r = 0; r < nrhs; ++r) {
      const std::vector<value_t> col = gen::dense_rhs(a.cols(), 140 + r);
      base.insert(base.end(), col.begin(), col.end());
    }
    CscMatrix l_ref;
    std::vector<value_t> x_ref;
    bool have_ref = false;
    for (const int threads : {1, 2, 4}) {
#ifdef SYMPILER_HAS_OPENMP
      omp_set_num_threads(threads);
#endif
      on.factor(a);
      off.factor(a);
      ASSERT_EQ(on.path(), ExecutionPath::ParallelSupernodal);
      ASSERT_FALSE(on.plan()->agg.empty());
      expect_identity_aggregate(off.plan()->agg, off.plan()->evidence);
      // Compacted supernodal slot map: one entry per below-diagonal panel
      // row, the per-supernode diagonal-block prefixes squeezed out.
      EXPECT_EQ(on.plan()->solve_update_map.slot.size(),
                on.plan()->sets.layout.srows.size() - n);
      // Chain fusion must strictly reduce barriers on the banded pattern;
      // never increase them anywhere.
      EXPECT_LE(on.plan()->agg.levels(), on.plan()->evidence.levels);
      std::vector<value_t> x_on = base, x_off = base;
      on.solve_batch(x_on, nrhs);
      off.solve_batch(x_off, nrhs);
      if (!have_ref) {
        l_ref = on.factor_csc();
        x_ref = x_on;
        have_ref = true;
      }
      ASSERT_TRUE(on.factor_csc().equals(l_ref)) << "threads=" << threads;
      ASSERT_TRUE(off.factor_csc().equals(l_ref)) << "threads=" << threads;
      ASSERT_EQ(x_on, x_ref) << "threads=" << threads;
      ASSERT_EQ(x_off, x_ref) << "threads=" << threads;
    }
  }
}

TEST(ScheduleCoarsening, PlanBytesCountAggScheduleAndSlotMapIsCompact) {
  const index_t n = 129;
  const CscMatrix l = racy_arrowhead_lower(n);
  const auto coarse = racy_parallel_plan(l, /*coarsen=*/true);
  const auto identity = racy_parallel_plan(l, /*coarsen=*/false);
  if (!Planner::parallel_enabled()) return;
  ASSERT_EQ(coarse->path, ExecutionPath::ParallelTriSolve);
  // The compacted slot map holds exactly one entry per strictly-lower
  // nonzero — the always-(-1) diagonal prefix entries are gone.
  EXPECT_EQ(static_cast<index_t>(coarse->update_map.slot.size()),
            l.nnz() - n);
  EXPECT_EQ(coarse->update_map.slots(),
            static_cast<index_t>(coarse->update_map.slot.size()));
  // bytes() accounts for the aggregate schedule, the only schedule a plan
  // carries: the two plans differ in nothing else.
  EXPECT_TRUE(coarse->schedule.empty());
  EXPECT_EQ(coarse->bytes() - coarse->agg.bytes(),
            identity->bytes() - identity->agg.bytes());
  EXPECT_LT(coarse->agg.bytes(), identity->agg.bytes());
}

TEST(ScheduleCoarsening, CoarsenedSchedulesHaveNoEmptyLevel) {
  // A flat level whose every item joins a chain started below it heads no
  // task; it must leave no empty aggregate level behind (each one would
  // cost a team barrier in the factor and in every solve sweep).
  const auto expect_no_empty_level = [](const parallel::AggregateSchedule& agg,
                                        const std::string& what) {
    ASSERT_FALSE(agg.empty()) << what;
    for (index_t lv = 0; lv < agg.levels(); ++lv)
      EXPECT_LT(agg.level_ptr[lv], agg.level_ptr[lv + 1])
          << what << ": level " << lv << " of " << agg.levels() << " is empty";
  };
  std::vector<std::pair<std::string, CscMatrix>> mats;
  mats.emplace_back("grid24", gen::grid2d_laplacian(24, 24));
  mats.emplace_back("grid40", gen::grid2d_laplacian(40, 40));
  mats.emplace_back("grid24 natural",
                    gen::grid2d_laplacian(24, 24, gen::GridOrder::Natural));
  mats.emplace_back("banded", gen::banded_spd(180, 9, 3));
  for (const auto& [name, a] : mats) {
    const CholeskyPlan plan = Planner(supernodal_config()).plan_cholesky(a);
    ASSERT_EQ(plan.path, ExecutionPath::Supernodal) << name;
    expect_no_empty_level(support::supernode_schedule(plan, a, true),
                          name + " supernodes");
    const CscMatrix l = symbolic_cholesky(a).l_pattern;
    expect_no_empty_level(
        parallel::coarsen_schedule_columns(
            l, parallel::level_schedule_columns(l)),
        name + " columns");
    if (!Planner::parallel_enabled()) continue;
    PlannerConfig config = supernodal_config();
    config.enable_parallel = true;
    config.parallel_min_supernodes = 1;
    config.parallel_min_avg_level_width = 0.0;
    const CholeskyPlan parallel_plan = Planner(config).plan_cholesky(a);
    ASSERT_EQ(parallel_plan.path, ExecutionPath::ParallelSupernodal) << name;
    expect_no_empty_level(parallel_plan.agg, name + " plan");
    EXPECT_EQ(parallel_plan.evidence.agg_levels, parallel_plan.agg.levels());
  }
}

// ------------------------------- shared-context zero-schedule regression

TEST(ExecutionPlan, SecondSolverSharingContextDoesZeroScheduleWork) {
  // The per-Solver memoization bug class the plan refactor fixes: two
  // Solvers sharing a SymbolicContext used to recompute the supernodal
  // level schedule independently. Now the schedule lives in the cached
  // plan: the second Solver's factor() must do zero schedule work, proven
  // by plan pointer identity, cache hit counters, and the process-wide
  // schedule-build counter standing still.
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  api::SolverConfig cfg;
  cfg.options.vsblock_min_avg_size = 0.0;
  cfg.options.vsblock_min_avg_width = 0.0;
  cfg.parallel_min_supernodes = 1;
  cfg.parallel_min_avg_level_width = 0.0;
  auto context = std::make_shared<api::SymbolicContext>();

  api::Solver cold(cfg, context);
  cold.factor(a);
  EXPECT_FALSE(cold.symbolic_cached());

  const std::uint64_t builds_after_cold = parallel::level_schedule_builds();
  api::Solver warm(cfg, context);
  warm.factor(a);

  EXPECT_TRUE(warm.symbolic_cached());
  // Pointer identity: the whole plan — sets AND schedule AND path — is
  // one shared object, not a per-Solver recomputation.
  EXPECT_EQ(warm.plan().get(), cold.plan().get());
  // Zero schedule construction happened anywhere in the process during
  // the warm factor.
  EXPECT_EQ(parallel::level_schedule_builds(), builds_after_cold);
  const CacheStats st = warm.cache_stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);

  // Both Solvers produce the same factor bits from the shared plan.
  ASSERT_TRUE(warm.factor_csc().equals(cold.factor_csc()));
}

// ----------------------- cold-plan products vs oracles and team sizes

/// Patterns spanning the planner's structural regimes (mirrors
/// test_graph's generator_patterns).
std::vector<CscMatrix> plan_test_patterns() {
  std::vector<CscMatrix> mats;
  mats.push_back(gen::grid2d_laplacian(18, 18));
  mats.push_back(gen::grid2d_laplacian(14, 20, gen::GridOrder::Natural));
  mats.push_back(gen::grid3d_laplacian(6, 7, 5));
  mats.push_back(gen::block_structural(7, 8, 3, 42));
  mats.push_back(gen::random_spd(250, 3.0, 7));
  mats.push_back(gen::banded_spd(180, 9, 3));
  mats.push_back(gen::power_grid(350, 50, 9));
  return mats;
}

/// The planner configurations that exercise every path choice.
std::vector<PlannerConfig> plan_test_configs() {
  std::vector<PlannerConfig> configs;
  configs.push_back(PlannerConfig{});  // defaults: path depends on pattern
  PlannerConfig simplicial;
  simplicial.options.vsblock_min_avg_size = 1e9;  // force the gate shut
  configs.push_back(simplicial);
  PlannerConfig par;
  par.options.vsblock_min_avg_size = 0.0;
  par.options.vsblock_min_avg_width = 0.0;
  par.parallel_min_supernodes = 1;
  par.parallel_min_avg_level_width = 0.0;
  configs.push_back(par);
  return configs;
}

TEST(Planner, PlanPatternMatchesNaiveSymbolicOnEveryPattern) {
  // The GNP counts and the fused sweep change how L's pattern is found,
  // never what it is: on every generator pattern under every path choice,
  // nnz(L), the flops and L's pattern (row order included) equal those of
  // the retired count-every-ereach pipeline (tests/support). A simplicial
  // plan stores L's pattern; a supernodal plan stores A's in its place,
  // and L's is re-derived from it.
  const auto patterns = plan_test_patterns();
  const auto configs = plan_test_configs();
  for (std::size_t m = 0; m < patterns.size(); ++m) {
    const SymbolicFactor naive = symbolic_cholesky_naive(patterns[m]);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const std::string label =
          "pattern " + std::to_string(m) + " config " + std::to_string(c);
      const CholeskyPlan plan = Planner(configs[c]).plan_cholesky(patterns[m]);
      const core::CholeskySets& sets = plan.sets;
      if (plan.path == ExecutionPath::Simplicial) {
        EXPECT_TRUE(sets.a_pattern.colptr.empty()) << label;
        EXPECT_TRUE(sets.sym.l_pattern.values.empty()) << label;
      } else {
        EXPECT_TRUE(sets.sym.l_pattern.colptr.empty()) << label;
        EXPECT_EQ(sets.a_pattern.rows(), patterns[m].rows()) << label;
        EXPECT_EQ(sets.a_pattern.colptr, patterns[m].colptr) << label;
        EXPECT_EQ(sets.a_pattern.rowind, patterns[m].rowind) << label;
        EXPECT_TRUE(sets.a_pattern.values.empty()) << label;
      }
      EXPECT_EQ(sets.n(), patterns[m].cols()) << label;
      const CscMatrix lp = sets.factor_pattern();
      EXPECT_EQ(lp.colptr, naive.l_pattern.colptr) << label;
      EXPECT_EQ(lp.rowind, naive.l_pattern.rowind) << label;
      EXPECT_EQ(sets.sym.fill_nnz, naive.fill_nnz) << label;
      EXPECT_EQ(sets.sym.flops, naive.flops) << label;
    }
  }
}

TEST(Planner, SupernodalFactorCscHasTheNaiveSymbolicPattern) {
  // factor_csc() on a supernodal plan re-derives L's pattern from the
  // stored A pattern: on every generator pattern under every path choice,
  // the sequential executor's factor and the facade's (the level-set
  // factor on a parallel plan) have exactly the pattern of the retired
  // oracle and fill_nnz entries.
  const auto patterns = plan_test_patterns();
  const auto configs = plan_test_configs();
  int supernodal = 0;
  for (std::size_t m = 0; m < patterns.size(); ++m) {
    const CscMatrix& a = patterns[m];
    const SymbolicFactor naive = symbolic_cholesky_naive(a);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const std::string label =
          "pattern " + std::to_string(m) + " config " + std::to_string(c);
      api::SolverConfig cfg;
      cfg.options = configs[c].options;
      cfg.parallel_min_supernodes = configs[c].parallel_min_supernodes;
      cfg.parallel_min_avg_level_width =
          configs[c].parallel_min_avg_level_width;
      api::Solver solver(cfg, std::make_shared<api::SymbolicContext>());
      solver.factor(a);
      if (solver.path() == ExecutionPath::Simplicial) continue;
      ++supernodal;
      core::CholeskyExecutor sequential(solver.plan());
      sequential.factorize(a);
      for (const CscMatrix& l :
           {solver.factor_csc(), sequential.factor_csc()}) {
        EXPECT_EQ(l.colptr, naive.l_pattern.colptr) << label;
        EXPECT_EQ(l.rowind, naive.l_pattern.rowind) << label;
        EXPECT_EQ(l.nnz(), solver.plan()->sets.sym.fill_nnz) << label;
        EXPECT_EQ(l.values.size(), l.rowind.size()) << label;
      }
    }
  }
  EXPECT_GE(supernodal, static_cast<int>(patterns.size()));
}

#ifdef SYMPILER_HAS_OPENMP
/// Two plans of one pattern agree in every product, in bytes() and in
/// their file images. Planning times are zeroed before the images are
/// compared: they are the only fields two builds disagree on.
void expect_plans_identical(CholeskyPlan a, CholeskyPlan b,
                            const std::string& label) {
  EXPECT_TRUE(a.key == b.key) << label;
  EXPECT_EQ(a.path, b.path) << label;
  EXPECT_EQ(a.sets.sym.l_pattern.colptr, b.sets.sym.l_pattern.colptr)
      << label;
  EXPECT_EQ(a.sets.sym.l_pattern.rowind, b.sets.sym.l_pattern.rowind)
      << label;
  EXPECT_EQ(a.sets.a_pattern.colptr, b.sets.a_pattern.colptr) << label;
  EXPECT_EQ(a.sets.a_pattern.rowind, b.sets.a_pattern.rowind) << label;
  EXPECT_EQ(a.sets.rowpat_ptr, b.sets.rowpat_ptr) << label;
  EXPECT_EQ(a.sets.rowpat, b.sets.rowpat) << label;
  EXPECT_EQ(a.sets.layout.sn.start, b.sets.layout.sn.start) << label;
  EXPECT_EQ(a.sets.layout.srows, b.sets.layout.srows) << label;
  EXPECT_EQ(a.sets.layout.panel_ptr, b.sets.layout.panel_ptr) << label;
  EXPECT_EQ(a.sets.updates.ptr, b.sets.updates.ptr) << label;
  EXPECT_EQ(a.solve_update_map.slot, b.solve_update_map.slot) << label;
  EXPECT_EQ(a.agg.level_ptr, b.agg.level_ptr) << label;
  EXPECT_EQ(a.agg.task_ptr, b.agg.task_ptr) << label;
  EXPECT_EQ(a.agg.items, b.agg.items) << label;
  EXPECT_EQ(a.bytes(), b.bytes()) << label;
  for (CholeskyPlan* plan : {&a, &b}) {
    plan->evidence.build_seconds = 0.0;
    plan->evidence.phases = {};
  }
  EXPECT_EQ(core::serialize_plan(a), core::serialize_plan(b)) << label;
}

TEST(Planner, OneThreadPlanEqualsTeamPlanInEveryProduct) {
  // The supernodal assembly runs the update lists and the schedule as
  // sibling OpenMP tasks. Each is a deterministic pattern function, so
  // the team size never changes a plan: one built on a 1-thread team
  // equals one built on the default team (at least 2 threads) on every
  // generator pattern under every path choice — including the update
  // refs, which the file image covers.
  const int team = omp_get_max_threads();
  const auto patterns = plan_test_patterns();
  const auto configs = plan_test_configs();
  for (std::size_t m = 0; m < patterns.size(); ++m) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const Planner planner(configs[c]);
      omp_set_num_threads(1);
      const CholeskyPlan one = planner.plan_cholesky(patterns[m]);
      omp_set_num_threads(std::max(team, 2));
      const CholeskyPlan many = planner.plan_cholesky(patterns[m]);
      expect_plans_identical(
          one, many,
          "pattern " + std::to_string(m) + " config " + std::to_string(c));
    }
  }
  omp_set_num_threads(team);
}
#endif  // SYMPILER_HAS_OPENMP

// ------------------------------------------- amalgamated supernodal plans

/// Supernode count of the fundamental partition of a's factor — the
/// partition the VS-Block gate reads, before amalgamation.
index_t fundamental_supernodes(const CscMatrix& a) {
  const SymbolicFactor sym = symbolic_cholesky(a);
  return supernodes_cholesky(sym.parent, sym.colcount).count();
}

TEST(MergedPlan, FactorCscHasTheSimplicialPattern) {
  const CscMatrix a = gen::grid2d_laplacian(32, 32);
  const auto plan = std::make_shared<const CholeskyPlan>(
      Planner(supernodal_config()).plan_cholesky(a));
  ASSERT_EQ(plan->path, ExecutionPath::Supernodal);
  ASSERT_LT(plan->sets.layout.nsuper(), fundamental_supernodes(a));
  // The evidence keeps the partition the VS-Block gate read apart from
  // the one the plan executes, and --explain prints both.
  EXPECT_EQ(plan->evidence.fundamental_supernodes, fundamental_supernodes(a));
  EXPECT_EQ(plan->evidence.supernodes, plan->sets.layout.nsuper());
  EXPECT_NE(plan->summary().find(
                std::to_string(plan->evidence.fundamental_supernodes) +
                " fundamental"),
            std::string::npos);

  core::CholeskyExecutor exec(plan);
  exec.factorize(a);
  const CscMatrix l = exec.factor_csc();
  l.validate();
  solvers::SimplicialCholesky ref(a);
  ref.factorize(a);
  ASSERT_TRUE(l.same_pattern(ref.factor()));
  for (index_t p = 0; p < l.nnz(); ++p)
    ASSERT_NEAR(l.values[p], ref.factor().values[p], 1e-10) << "nz " << p;
  // The panels really hold explicit zeros the exact factor drops.
  EXPECT_GT(plan->sets.layout.total_values(), l.nnz());
}

TEST(MergedPlan, ParallelFactorIdenticalAcrossThreadsAndCoarsening) {
  // Direct overloads, so every build runs the identity and the coarsened
  // aggregate (sequentially without OpenMP). The panels start out holding
  // different garbage on every run: A is scattered into each panel inside
  // its supernode's body, so no stale value may leak into the factor.
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  const CholeskyPlan plan = Planner(supernodal_config()).plan_cholesky(a);
  ASSERT_LT(plan.sets.layout.nsuper(), fundamental_supernodes(a));
  const parallel::AggregateSchedule identity =
      support::supernode_schedule(plan, a, /*coarsen=*/false);
  const parallel::AggregateSchedule agg =
      support::supernode_schedule(plan, a, /*coarsen=*/true);
  ASSERT_LT(agg.tasks(), identity.tasks());

  const auto values =
      static_cast<std::size_t>(plan.sets.layout.total_values());
  std::vector<value_t> ref;
  value_t garbage = 1.0;
  for (const int threads : {1, 2, 3, 4}) {
#ifdef SYMPILER_HAS_OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    for (const bool coarsen : {false, true}) {
      std::vector<value_t> panels(values, garbage);
      garbage += 1.0;
      parallel::parallel_cholesky(plan.sets, coarsen ? agg : identity, a,
                                  panels);
      if (ref.empty()) {
        ref = panels;
        continue;
      }
      ASSERT_EQ(std::memcmp(panels.data(), ref.data(),
                            values * sizeof(value_t)),
                0)
          << "threads=" << threads << " coarsen=" << coarsen;
    }
  }
  const CscMatrix l = solvers::panels_to_csc(plan.sets.layout, ref,
                                             symbolic_cholesky(a).l_pattern);
  solvers::SimplicialCholesky simplicial(a);
  simplicial.factorize(a);
  ASSERT_TRUE(l.same_pattern(simplicial.factor()));
  EXPECT_LT(llt_residual_inf_norm(l, a), 1e-8);
}

TEST(Planner, GatedPlansCarryOnlyPathConsumedProducts) {
  const CscMatrix a = gen::grid2d_laplacian(30, 30);

  const CholeskyPlan supernodal =
      Planner(supernodal_config()).plan_cholesky(a);
  ASSERT_EQ(supernodal.path, ExecutionPath::Supernodal);
  // Supernodal plans carry the layout, the update lists and the pattern
  // of A's lower triangle without values, but neither the simplicial row
  // patterns nor L's pattern: no factor or solve there reads L's rows.
  EXPECT_FALSE(supernodal.sets.layout.srows.empty());
  EXPECT_FALSE(supernodal.sets.updates.ptr.empty());
  EXPECT_TRUE(supernodal.sets.rowpat_ptr.empty());
  EXPECT_EQ(supernodal.sets.sym.l_pattern.bytes(), 0u);
  EXPECT_EQ(supernodal.sets.a_pattern.colptr, a.colptr);
  EXPECT_EQ(supernodal.sets.a_pattern.rowind, a.rowind);
  EXPECT_TRUE(supernodal.sets.a_pattern.values.empty());
  // A supernodal plan weighs exactly its A pattern, layout and update
  // lists, plus the aggregate schedule and the slot map on a parallel one.
  const CholeskyPlan parallel =
      support::parallel_cholesky_plan(supernodal, a, /*coarsen=*/true);
  for (const CholeskyPlan* plan : {&supernodal, &parallel}) {
    const core::CholeskySets& s = plan->sets;
    EXPECT_EQ(plan->bytes(), sizeof(CholeskyPlan) + s.a_pattern.bytes() +
                                 s.layout.bytes() + s.updates.bytes() +
                                 plan->agg.bytes() +
                                 plan->solve_update_map.bytes())
        << core::to_string(plan->path);
  }
  EXPECT_FALSE(parallel.agg.empty());
  EXPECT_FALSE(parallel.solve_update_map.empty());

  PlannerConfig simp;
  simp.options.vsblock_min_avg_size = 1e9;
  const CholeskyPlan simplicial = Planner(simp).plan_cholesky(a);
  ASSERT_EQ(simplicial.path, ExecutionPath::Simplicial);
  // Simplicial plans carry rowpat and L's pattern, but no supernodal
  // layout, no A pattern and no value array: the executor owns the
  // factor's values.
  const CscMatrix& lp = simplicial.sets.sym.l_pattern;
  EXPECT_FALSE(simplicial.sets.rowpat_ptr.empty());
  EXPECT_FALSE(lp.rowind.empty());
  EXPECT_TRUE(lp.values.empty());
  EXPECT_EQ(simplicial.sets.a_pattern.bytes(), 0u);
  EXPECT_TRUE(simplicial.sets.layout.srows.empty());
  EXPECT_TRUE(simplicial.sets.updates.refs.empty());
  // The plan weighs exactly 8 bytes per nnz(L) less than one that pinned
  // the zero value array.
  CholeskyPlan with_zeros = simplicial;
  with_zeros.sets.sym.l_pattern.values.assign(lp.rowind.size(), 0.0);
  EXPECT_EQ(simplicial.bytes(),
            with_zeros.bytes() - sizeof(value_t) * lp.rowind.size());

  // Neither path carries the etree, the column counts or a block-set
  // apart from the layout's partition: the sets weigh exactly the path's
  // stored pattern plus its products.
  for (const CholeskyPlan* plan : {&supernodal, &simplicial}) {
    const core::CholeskySets& s = plan->sets;
    const solvers::SupernodalLayout& layout = s.layout;
    const std::size_t indices = layout.srow_ptr.size() + layout.srows.size() +
                                s.rowpat_ptr.size() + s.rowpat.size();
    EXPECT_EQ(s.bytes(), s.sym.l_pattern.bytes() + s.a_pattern.bytes() +
                             layout.sn.bytes() + indices * sizeof(index_t) +
                             layout.panel_ptr.size() * sizeof(std::int64_t) +
                             s.updates.bytes())
        << core::to_string(plan->path);
  }
}


// ------------------------------ planner transpose-count regression

TEST(Planner, ColdPlanDoesExactlyOneTransposeAndWarmDoesNone) {
  // The duplicate-work bug this pins: etree and ERreach used to each
  // privately transpose A, so a cold api::Solver build transposed more
  // than once. All symbolic consumers now share the planner's single
  // upper-triangle view.
  const CscMatrix a = gen::grid2d_laplacian(25, 25);
  for (const PlannerConfig& config : plan_test_configs()) {
    const std::uint64_t before = core::planner_transpose_count();
    const CholeskyPlan plan = Planner(config).plan_cholesky(a);
    EXPECT_EQ(core::planner_transpose_count() - before, 1u)
        << "path " << core::to_string(plan.path);
  }

  // Through the facade: one transpose on the cold factor, zero on warm.
  auto context = std::make_shared<api::SymbolicContext>();
  api::Solver cold({}, context);
  const std::uint64_t before_cold = core::planner_transpose_count();
  cold.factor(a);
  EXPECT_EQ(core::planner_transpose_count() - before_cold, 1u);
  api::Solver warm({}, context);
  const std::uint64_t before_warm = core::planner_transpose_count();
  warm.factor(a);
  EXPECT_TRUE(warm.symbolic_cached());
  EXPECT_EQ(core::planner_transpose_count() - before_warm, 0u);
}

}  // namespace
}  // namespace sympiler
