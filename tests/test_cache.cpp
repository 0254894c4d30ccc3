// Tests for the pattern-keyed plan cache and the Solver facade:
// key identity (values never matter, structure and options always do),
// sharded byte-budget LRU mechanics, thread-safety, and
// facade-vs-direct-executor equality.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/solver.h"
#include "core/cholesky_executor.h"
#include "core/execution_plan.h"
#include "core/inspector.h"
#include "core/pattern_key.h"
#include "core/planner.h"
#include "core/symbolic_cache.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "solvers/simplicial.h"
#include "sparse/ops.h"

namespace sympiler {
namespace {

using core::CholeskyCache;
using core::CholeskyPlan;
using core::CholeskySets;
using core::PatternKey;
using core::SympilerOptions;

CscMatrix with_scaled_values(const CscMatrix& a, value_t scale) {
  CscMatrix out = a;
  for (value_t& v : out.values) v *= scale;
  return out;
}

/// Same pattern as `a` plus one extra off-diagonal nonzero (kept symmetric
/// in the lower triangle by adding a single strictly-lower entry).
CscMatrix with_extra_nonzero(const CscMatrix& a) {
  std::vector<Triplet> trip;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t p = a.col_begin(j); p < a.col_end(j); ++p)
      trip.push_back({a.rowind[p], j, a.values[p]});
  // Find an absent strictly-lower slot.
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = j + 1; i < a.rows(); ++i) {
      if (a.at(i, j) == 0.0) {
        trip.push_back({i, j, 1e-3});
        return CscMatrix::from_triplets(a.rows(), a.cols(), trip);
      }
    }
  }
  ADD_FAILURE() << "matrix is dense; cannot add a nonzero";
  return a;
}

TEST(PatternKey, SamePatternDifferentValuesIsEqual) {
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  const CscMatrix b = with_scaled_values(a, 3.75);
  const SympilerOptions opt;
  EXPECT_EQ(core::cholesky_pattern_key(a, opt),
            core::cholesky_pattern_key(b, opt));
}

TEST(PatternKey, ExtraNonzeroChangesKey) {
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  const CscMatrix b = with_extra_nonzero(a);
  const SympilerOptions opt;
  EXPECT_NE(core::cholesky_pattern_key(a, opt),
            core::cholesky_pattern_key(b, opt));
}

TEST(PatternKey, OptionsParticipate) {
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  SympilerOptions opt1;
  SympilerOptions opt2;
  opt2.vsblock_min_avg_size = 0.0;
  EXPECT_NE(core::cholesky_pattern_key(a, opt1),
            core::cholesky_pattern_key(a, opt2));
}

TEST(PatternKey, TrisolveRhsPatternParticipates) {
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix l = chol.factor();
  const SympilerOptions opt;
  const std::vector<index_t> beta1 = {0, 5};
  const std::vector<index_t> beta2 = {0, 5, 9};
  EXPECT_EQ(core::trisolve_pattern_key(l, beta1, opt),
            core::trisolve_pattern_key(l, beta1, opt));
  EXPECT_NE(core::trisolve_pattern_key(l, beta1, opt),
            core::trisolve_pattern_key(l, beta2, opt));
}

TEST(PatternKey, CholeskyAndTrisolveDomainsNeverCollide) {
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  const SympilerOptions opt;
  EXPECT_NE(core::cholesky_pattern_key(a, opt),
            core::trisolve_pattern_key(a, {}, opt));
}

TEST(PatternKey, StructureHashesArePinned) {
  // The plan store names its files after structure_hash/structure_hash2,
  // so their values must not move with how the hashing is written:
  // h1 is FNV-1a over colptr||rowind||beta, h2 over rowind||colptr||beta.
  const SympilerOptions opt;
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  const PatternKey grid = core::cholesky_pattern_key(a, opt);
  EXPECT_EQ(grid.structure_hash, 0x1abef240437f0296ULL);
  EXPECT_EQ(grid.structure_hash2, 0xc303e866aceefa32ULL);

  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const std::vector<index_t> beta = {0, 5, 9};
  const PatternKey tri = core::trisolve_pattern_key(chol.factor(), beta, opt);
  EXPECT_EQ(tri.structure_hash, 0x0265d62c06cd7af8ULL);
  EXPECT_EQ(tri.structure_hash2, 0xf0470f36248faa60ULL);
}

// A facade call reads the caller's pattern into a key once: a cache miss
// stamps the new plan with the key the facade looked it up with instead
// of hashing again. The direct executors never meet a cache, so they
// never hash.
TEST(PatternKey, OneHashPerFacadeCallAndNoneForTheDirectExecutors) {
  const auto hashes = [](const auto& call) {
    const std::uint64_t before = core::pattern_key_count();
    call();
    return core::pattern_key_count() - before;
  };
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  auto context = std::make_shared<api::SymbolicContext>();
  api::Solver cold({}, context);
  EXPECT_EQ(hashes([&] { cold.factor(a); }), 1u);
  EXPECT_FALSE(cold.symbolic_cached());
  EXPECT_EQ(cold.plan()->key,
            core::Planner(api::SolverConfig{}.planner_config())
                .cholesky_key(a));
  api::Solver warm({}, context);
  EXPECT_EQ(hashes([&] { warm.factor(a); }), 1u);
  EXPECT_TRUE(warm.symbolic_cached());

  const CscMatrix l = cold.factor_csc();
  const std::vector<index_t> beta = {0, 5, 9};
  EXPECT_EQ(hashes([&] {
              const api::TriangularSolver tri(l, beta, {}, context);
              EXPECT_FALSE(tri.symbolic_cached());
            }),
            1u);

  EXPECT_EQ(hashes([&] { const core::CholeskyExecutor exec(a); }), 0u);
  EXPECT_EQ(hashes([&] { const core::TriSolveExecutor exec(l, beta); }), 0u);
}

TEST(PatternKey, HashCollisionStillComparesUnequal) {
  // Hand-build two keys with identical container hash inputs forced equal:
  // even if the unordered-map hash collides, operator== must discriminate.
  PatternKey k1;
  k1.cols = 10;
  k1.nnz = 30;
  k1.structure_hash = 0x1234;
  PatternKey k2 = k1;
  k2.structure_hash2 = k1.structure_hash2 + 1;
  EXPECT_NE(k1, k2);  // map correctness never rests on the bucket hash
}

// -------------------------------------------------- sharded plan cache

PatternKey key_of(int variant) {
  PatternKey k;
  k.rows = k.cols = 8;
  k.nnz = 16;
  k.structure_hash = 0xabcd0000ULL + static_cast<std::uint64_t>(variant);
  k.structure_hash2 = ~k.structure_hash;
  return k;
}

/// A plan with a recognizable marker and a controllable bytes() weight
/// (padding lives in the simplicial row-pattern array).
CholeskyPlan plan_with_marker(double marker, std::size_t pad_bytes = 0) {
  CholeskyPlan p;
  p.sets.avg_supernode_size = marker;  // any distinguishable field works
  p.sets.rowpat.resize(pad_bytes / sizeof(index_t));
  return p;
}

TEST(PlanCache, HitsMissesAndSharing) {
  CholeskyCache cache;
  auto miss = cache.find(key_of(1));
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.plan, nullptr);

  auto built =
      cache.get_or_build(key_of(1), [] { return plan_with_marker(7); });
  EXPECT_FALSE(built.hit);
  auto again = cache.get_or_build(key_of(1), []() -> CholeskyPlan {
    ADD_FAILURE() << "hit must not rebuild";
    return {};
  });
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(again.plan.get(), built.plan.get());  // one shared object

  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);  // find() + the building get_or_build
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_DOUBLE_EQ(st.hit_rate(), 1.0 / 3.0);
}

TEST(PlanCache, ByteBudgetLruEviction) {
  // Three ~equal-weight plans in a budget that holds two: the
  // least-recently-used one is evicted.
  constexpr std::size_t kPad = 8 << 10;
  const std::size_t entry_bytes = plan_with_marker(0, kPad).bytes();
  CholeskyCache cache(2 * entry_bytes + entry_bytes / 2, /*shards=*/1);
  (void)cache.get_or_build(key_of(1), [] { return plan_with_marker(1, kPad); });
  (void)cache.get_or_build(key_of(2), [] { return plan_with_marker(2, kPad); });
  EXPECT_EQ(cache.resident_bytes(), 2 * entry_bytes);
  // Touch 1 so 2 becomes least-recently-used, then insert 3.
  EXPECT_TRUE(cache.find(key_of(1)).hit);
  (void)cache.get_or_build(key_of(3), [] { return plan_with_marker(3, kPad); });

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().evicted_bytes, entry_bytes);
  EXPECT_FALSE(cache.find(key_of(2)).hit);  // the LRU entry was evicted
  EXPECT_TRUE(cache.find(key_of(1)).hit);
  EXPECT_TRUE(cache.find(key_of(3)).hit);
}

TEST(PlanCache, EvictsLargestBytesAmongColdEntriesFirst) {
  // Acceptance: under pressure, the biggest (equal-recompute-cost) entry
  // in the LRU tail window goes first — eviction weighs bytes(), not
  // entry count or pure age.
  constexpr std::size_t kSmall = 1 << 10;
  constexpr std::size_t kLarge = 64 << 10;
  const std::size_t small_bytes = plan_with_marker(0, kSmall).bytes();
  const std::size_t large_bytes = plan_with_marker(0, kLarge).bytes();
  // Budget holds one large + one small entry; the third insert overflows.
  CholeskyCache cache(large_bytes + small_bytes + small_bytes / 2,
                      /*shards=*/1);
  // Insert order: small(1) oldest, then LARGE(2), then small(3). All have
  // equal rebuild cost (0.0), so score is proportional to bytes.
  (void)cache.insert(key_of(1), std::make_shared<const CholeskyPlan>(
                                    plan_with_marker(1, kSmall)));
  (void)cache.insert(key_of(2), std::make_shared<const CholeskyPlan>(
                                    plan_with_marker(2, kLarge)));
  (void)cache.insert(key_of(3), std::make_shared<const CholeskyPlan>(
                                    plan_with_marker(3, kSmall)));
  // Over budget now: the LARGE entry must be the victim even though the
  // oldest entry is small(1).
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().evicted_bytes, large_bytes);
  EXPECT_FALSE(cache.find(key_of(2)).hit);
  EXPECT_TRUE(cache.find(key_of(1)).hit);
  EXPECT_TRUE(cache.find(key_of(3)).hit);
}

TEST(PlanCache, ExpensivePlansOutliveCheapOnesUnderPressure) {
  // Equal bytes, unequal recompute cost: the cheap-to-rebuild plan is
  // evicted first (score = bytes / rebuild seconds).
  constexpr std::size_t kPad = 4 << 10;
  const std::size_t entry_bytes = plan_with_marker(0, kPad).bytes();
  CholeskyCache cache(2 * entry_bytes + entry_bytes / 2, /*shards=*/1);
  (void)cache.insert(key_of(1),
                     std::make_shared<const CholeskyPlan>(
                         plan_with_marker(1, kPad)),
                     /*rebuild_seconds=*/5.0);  // expensive, oldest
  (void)cache.insert(key_of(2),
                     std::make_shared<const CholeskyPlan>(
                         plan_with_marker(2, kPad)),
                     /*rebuild_seconds=*/0.0);  // cheap
  (void)cache.insert(key_of(3),
                     std::make_shared<const CholeskyPlan>(
                         plan_with_marker(3, kPad)),
                     /*rebuild_seconds=*/5.0);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.find(key_of(2)).hit);  // the cheap one went first
  EXPECT_TRUE(cache.find(key_of(1)).hit);
  EXPECT_TRUE(cache.find(key_of(3)).hit);
}

TEST(PlanCache, MruSurvivesEvenWhenOverBudget) {
  // A single plan larger than the whole budget is still served: the MRU
  // entry is never evicted.
  CholeskyCache cache(1, /*shards=*/1);
  (void)cache.get_or_build(key_of(1),
                           [] { return plan_with_marker(1, 1 << 10); });
  EXPECT_TRUE(cache.find(key_of(1)).hit);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, EvictedPlansSurviveThroughBorrowedPointer) {
  constexpr std::size_t kPad = 8 << 10;
  CholeskyCache cache(plan_with_marker(0, kPad).bytes(), /*shards=*/1);
  auto first =
      cache.get_or_build(key_of(1), [] { return plan_with_marker(42, kPad); });
  (void)cache.get_or_build(key_of(2),
                           [] { return plan_with_marker(43, kPad); });
  EXPECT_FALSE(cache.find(key_of(1)).hit);  // evicted...
  EXPECT_DOUBLE_EQ(first.plan->sets.avg_supernode_size, 42.0);  // ...but alive
}

TEST(PlanCache, KeysSpreadAcrossShards) {
  CholeskyCache cache;  // default geometry: 8 shards
  ASSERT_GT(cache.shard_count(), 1u);
  std::vector<int> population(cache.shard_count(), 0);
  for (int v = 0; v < 256; ++v)
    ++population[cache.shard_of(key_of(v))];
  int occupied = 0;
  for (const int p : population) occupied += p > 0 ? 1 : 0;
  // The hash must not collapse the stripe: most shards see traffic.
  EXPECT_GE(occupied, static_cast<int>(cache.shard_count()) / 2);
}

TEST(PlanCache, ConcurrentShardedLookupsKeepCountersConsistent) {
  // Acceptance: 8 threads hammering keys that land on different shards
  // keep aggregated hit + miss == lookups issued (per-shard atomics, no
  // lost updates), and every thread sees the canonical shared plan.
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  constexpr int kPatterns = 16;
  CholeskyCache cache;  // sharded default
  std::atomic<int> mismatches{0};
  std::vector<std::shared_ptr<const CholeskyPlan>> canonical(kPatterns);
  for (int v = 0; v < kPatterns; ++v)
    canonical[v] = cache
                       .get_or_build(key_of(v),
                                     [&] { return plan_with_marker(v); })
                       .plan;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int v = (t + i) % kPatterns;
        auto got = cache.get_or_build(key_of(v),
                                      [&] { return plan_with_marker(v); });
        if (got.plan.get() != canonical[v].get()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.lookups(),
            static_cast<std::uint64_t>(kThreads) * kIters + kPatterns);
  EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kThreads) * kIters);

  // Per-shard counters aggregate to the same totals (CacheStats::operator+).
  CacheStats summed;
  for (std::size_t s = 0; s < cache.shard_count(); ++s)
    summed += cache.shard_stats(s);
  EXPECT_EQ(summed.hits, st.hits);
  EXPECT_EQ(summed.misses, st.misses);
}

TEST(PlanCache, RacingBuildersConvergeOnFirstWriter) {
  constexpr int kThreads = 8;
  CholeskyCache cache;
  std::vector<std::shared_ptr<const CholeskyPlan>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[static_cast<std::size_t>(t)] =
          cache.get_or_build(key_of(9), [&] { return plan_with_marker(t); })
              .plan;
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(seen[static_cast<std::size_t>(t)].get(), seen[0].get());
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------------------------ facade

TEST(SolverFacade, MatchesDirectCholeskyExecutorBitwise) {
  for (const bool big_pattern : {false, true}) {
    const CscMatrix a = big_pattern ? gen::grid2d_laplacian(40, 40)
                                    : gen::random_spd(150, 2.5, 3);
    api::SolverConfig cfg;
    cfg.enable_parallel = false;  // compare against the sequential executor
    api::Solver solver(cfg, std::make_shared<api::SymbolicContext>());
    solver.factor(a);

    core::CholeskyExecutor direct(a, cfg.options);
    direct.factorize(a);

    const CscMatrix l_facade = solver.factor_csc();
    const CscMatrix l_direct = direct.factor_csc();
    ASSERT_TRUE(l_facade.equals(l_direct));  // bit-identical factor

    std::vector<value_t> b = gen::dense_rhs(a.cols(), 77);
    std::vector<value_t> x_facade(b), x_direct(b);
    solver.solve(x_facade);
    direct.solve(x_direct);
    for (index_t i = 0; i < a.cols(); ++i)
      ASSERT_EQ(x_facade[i], x_direct[i]) << "at " << i;
  }
}

TEST(SolverFacade, WarmFactorHitsCacheAndMatchesCold) {
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  const CscMatrix a2 = with_scaled_values(a, 1.5);
  auto context = std::make_shared<api::SymbolicContext>();
  api::SolverConfig cfg;
  cfg.enable_parallel = false;  // bitwise comparison against the executor

  api::Solver cold(cfg, context);
  cold.factor(a);
  EXPECT_FALSE(cold.symbolic_cached());

  api::Solver warm(cfg, context);  // a different Solver, same context
  warm.factor(a2);                 // same pattern, different values
  EXPECT_TRUE(warm.symbolic_cached());
  EXPECT_EQ(&warm.sets(), &cold.sets());  // literally the same sets object

  const CacheStats st = warm.cache_stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);

  // The cached symbolic state serves correct numerics for the new values.
  core::CholeskyExecutor direct(a2);
  direct.factorize(a2);
  ASSERT_TRUE(warm.factor_csc().equals(direct.factor_csc()));
}

TEST(SolverFacade, RefactorSamePatternSkipsSymbolic) {
  const CscMatrix a = gen::grid2d_laplacian(25, 25);
  auto context = std::make_shared<api::SymbolicContext>();
  api::SolverConfig cfg;
  cfg.enable_parallel = false;  // bitwise comparison against the executor
  api::Solver solver(cfg, context);
  solver.factor(a);
  EXPECT_FALSE(solver.symbolic_cached());
  const CscMatrix a2 = with_scaled_values(a, 0.5);
  solver.factor(a2);  // same key: no cache lookup, no inspection
  EXPECT_EQ(solver.cache_stats().lookups(), 1u);
  EXPECT_TRUE(solver.symbolic_cached());  // symbolic-free refactor counts

  core::CholeskyExecutor direct(a2);
  direct.factorize(a2);
  ASSERT_TRUE(solver.factor_csc().equals(direct.factor_csc()));
}

TEST(SolverFacade, ParallelEligiblePathStaysCorrect) {
  // Force the parallel gates open: under OpenMP builds this exercises the
  // level-set parallel Cholesky; otherwise the facade must refuse it and
  // stay sequential. Either way the factorization must be correct.
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  api::SolverConfig cfg;
  cfg.options.vsblock_min_avg_size = 0.0;
  cfg.options.vsblock_min_avg_width = 0.0;  // supernodal sets
  cfg.parallel_min_supernodes = 1;
  cfg.parallel_min_avg_level_width = 0.0;
  api::Solver solver(cfg, std::make_shared<api::SymbolicContext>());
  solver.factor(a);
#ifdef SYMPILER_HAS_OPENMP
  EXPECT_EQ(solver.path(), api::ExecutionPath::ParallelSupernodal);
#else
  EXPECT_EQ(solver.path(), api::ExecutionPath::Supernodal);
#endif
  EXPECT_LT(llt_residual_inf_norm(solver.factor_csc(), a), 1e-8);

  std::vector<value_t> x = gen::dense_rhs(a.cols(), 5);
  const std::vector<value_t> b = x;
  solver.solve(x);
  EXPECT_LT(residual_inf_norm_symmetric_lower(a, x, b), 1e-8);
}

TEST(SolverFacade, FailedRefactorInvalidatesFactorization) {
  const CscMatrix a = gen::grid2d_laplacian(10, 10);
  api::Solver solver({}, std::make_shared<api::SymbolicContext>());
  solver.factor(a);

  // Same pattern, non-SPD values: the numeric phase must throw, and the
  // half-overwritten factor must not stay reachable through solve().
  const CscMatrix bad = with_scaled_values(a, -1.0);
  EXPECT_THROW(solver.factor(bad), numerical_error);
  std::vector<value_t> x(static_cast<std::size_t>(a.cols()), 1.0);
  EXPECT_THROW(solver.solve(x), invalid_matrix_error);

  // Recovery: a successful refactor restores service.
  solver.factor(a);
  solver.solve(x);
}

TEST(SolverFacade, RejectsMismatchedRhsSizes) {
  const CscMatrix a = gen::grid2d_laplacian(10, 10);
  api::Solver solver({}, std::make_shared<api::SymbolicContext>());
  solver.factor(a);
  std::vector<value_t> short_rhs(static_cast<std::size_t>(a.cols()) - 1, 1.0);
  EXPECT_THROW(solver.solve(short_rhs), invalid_matrix_error);
  std::vector<std::vector<value_t>> batch = {short_rhs};
  EXPECT_THROW(solver.solve_batch(batch), invalid_matrix_error);
  std::vector<value_t> flat(static_cast<std::size_t>(a.cols()) * 2 - 1, 1.0);
  EXPECT_THROW(solver.solve_batch(flat, 2), invalid_matrix_error);
}

TEST(SolverFacade, PatternChangeReroutesAndMisses) {
  auto context = std::make_shared<api::SymbolicContext>();
  api::Solver solver({}, context);
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  const CscMatrix b = with_extra_nonzero(a);
  solver.factor(a);
  EXPECT_FALSE(solver.symbolic_cached());
  solver.factor(b);  // one extra nonzero => different key => miss
  EXPECT_FALSE(solver.symbolic_cached());
  EXPECT_EQ(solver.cache_stats().misses, 2u);
  solver.factor(a);  // back to the first pattern: served from cache
  EXPECT_TRUE(solver.symbolic_cached());
}

TEST(SolverFacade, SolveBatchMatchesSingleSolves) {
  const CscMatrix a = gen::random_spd(120, 2.0, 9);
  const index_t n = a.cols();
  api::Solver solver({}, std::make_shared<api::SymbolicContext>());
  solver.factor(a);

  constexpr index_t kNrhs = 5;
  std::vector<value_t> batch;
  std::vector<std::vector<value_t>> singles;
  for (index_t r = 0; r < kNrhs; ++r) {
    const std::vector<value_t> b = gen::dense_rhs(n, 100 + r);
    batch.insert(batch.end(), b.begin(), b.end());
    singles.push_back(b);
  }
  solver.solve_batch(batch, kNrhs);
  for (index_t r = 0; r < kNrhs; ++r) {
    solver.solve(singles[static_cast<std::size_t>(r)]);
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(batch[static_cast<std::size_t>(r) * n + i],
                singles[static_cast<std::size_t>(r)][i])
          << "rhs " << r << " at " << i;
  }
}

TEST(TriangularSolverFacade, MatchesDirectExecutorBitwise) {
  const CscMatrix a = gen::grid2d_laplacian(25, 25);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix l = chol.factor();
  const index_t n = l.cols();
  const std::vector<value_t> b = gen::sparse_rhs(n, 4, 11);
  std::vector<index_t> beta;
  for (index_t i = 0; i < n; ++i)
    if (b[i] != 0.0) beta.push_back(i);

  auto context = std::make_shared<api::SymbolicContext>();
  api::TriangularSolver facade(l, beta, {}, context);
  EXPECT_FALSE(facade.symbolic_cached());
  core::TriSolveExecutor direct(l, beta);

  std::vector<value_t> x_facade(b), x_direct(b);
  facade.solve(x_facade);
  direct.solve(x_direct);
  for (index_t i = 0; i < n; ++i)
    ASSERT_EQ(x_facade[i], x_direct[i]) << "at " << i;

  // A second facade over the same (L, beta) pattern is symbolic-free.
  api::TriangularSolver warm(l, beta, {}, context);
  EXPECT_TRUE(warm.symbolic_cached());
  EXPECT_EQ(&warm.sets(), &facade.sets());
  std::vector<value_t> x_warm(b);
  warm.solve(x_warm);
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(x_warm[i], x_direct[i]);
}

}  // namespace
}  // namespace sympiler
