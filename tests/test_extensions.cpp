// Tests for the section-3.3 extensions: Gilbert-Peierls LU, incomplete
// Cholesky IC(0), and the level-set parallel executors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/planner.h"
#include "gen/generators.h"
#include "graph/supernodes.h"
#include "graph/symbolic.h"
#include "lu/lu.h"
#include "parallel/levelset.h"
#include "solvers/simplicial.h"
#include "solvers/trisolve.h"
#include "sparse/dense.h"
#include "sparse/ops.h"
#include "support/ic0.h"
#include "support/plans.h"

namespace sympiler {
namespace {

// --- LU -------------------------------------------------------------------

class LuCases : public ::testing::TestWithParam<int> {};

CscMatrix lu_matrix(int c) {
  // Unsymmetric variants built from symmetric generators plus a skew
  // perturbation that preserves diagonal dominance.
  CscMatrix lower = [&] {
    switch (c) {
      case 0: return gen::grid2d_laplacian(9, 9);
      case 1: return gen::random_spd(120, 2.0, 31);
      case 2: return gen::power_grid(150, 30, 3);
      default: return gen::banded_spd(80, 5, 8);
    }
  }();
  CscMatrix full = symmetric_full_from_lower(lower);
  // Scale strictly-upper entries to break symmetry.
  for (index_t j = 0; j < full.cols(); ++j)
    for (index_t p = full.col_begin(j); p < full.col_end(j); ++p)
      if (full.rowind[p] < j) full.values[p] *= 0.75;
  return full;
}

TEST_P(LuCases, FactorReconstructsMatrix) {
  const CscMatrix a = lu_matrix(GetParam());
  lu::LuFactor f(a);
  f.factorize(a);
  // Dense check of L*U == A (cases are small).
  const DenseMatrix dl = DenseMatrix::from_csc(f.lower());
  const DenseMatrix du = DenseMatrix::from_csc(f.upper());
  const DenseMatrix da = DenseMatrix::from_csc(a);
  const index_t n = a.cols();
  double err = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      value_t s = 0.0;
      for (index_t k = 0; k <= std::min(i, j); ++k) s += dl(i, k) * du(k, j);
      err = std::max(err, std::abs(s - da(i, j)));
    }
  EXPECT_LT(err, 1e-8);
}

TEST_P(LuCases, SolveResidual) {
  const CscMatrix a = lu_matrix(GetParam());
  lu::LuFactor f(a);
  f.factorize(a);
  const std::vector<value_t> b = gen::dense_rhs(a.cols(), 5);
  std::vector<value_t> x(b);
  f.solve(x);
  EXPECT_LT(residual_inf_norm(a, x, b), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Cases, LuCases, ::testing::Range(0, 4));

TEST(Lu, UnitLowerDiagonal) {
  const CscMatrix a = lu_matrix(0);
  lu::LuFactor f(a);
  f.factorize(a);
  for (index_t j = 0; j < a.cols(); ++j)
    EXPECT_DOUBLE_EQ(f.lower().at(j, j), 1.0);
}

TEST(Lu, SymmetricSpdMatchesCholeskyPattern) {
  // On an SPD matrix (symmetrized), nnz(L_lu) must equal nnz(L_chol): GP
  // reachability and the etree fill theory agree.
  const CscMatrix lower = gen::grid2d_laplacian(8, 8);
  const CscMatrix full = symmetric_full_from_lower(lower);
  lu::LuFactor f(full);
  const SymbolicFactor sym = symbolic_cholesky(lower);
  EXPECT_EQ(f.lower().nnz(), sym.fill_nnz);
}

TEST(Lu, ZeroPivotThrows) {
  // Singular: elimination drives the second pivot to exactly zero.
  std::vector<Triplet> trip = {{0, 0, 1.0}, {1, 1, 1.0}, {1, 0, 1.0},
                               {0, 1, 1.0}};
  const CscMatrix a = CscMatrix::from_triplets(2, 2, trip);
  lu::LuFactor f(a);
  EXPECT_THROW(f.factorize(a), numerical_error);
}

TEST(Lu, RefactorizeWithNewValues) {
  CscMatrix a = lu_matrix(2);
  lu::LuFactor f(a);
  f.factorize(a);
  for (auto& v : a.values) v *= 3.0;
  f.factorize(a);
  const std::vector<value_t> b = gen::dense_rhs(a.cols(), 9);
  std::vector<value_t> x(b);
  f.solve(x);
  EXPECT_LT(residual_inf_norm(a, x, b), 1e-8);
}

// --- IC(0) ------------------------------------------------------------

TEST(Ic0, ExactOnNoFillMatrix) {
  // A tridiagonal SPD matrix factors with zero fill, so IC(0) == complete.
  const CscMatrix a = gen::banded_spd(50, 1, 3);
  lu::IncompleteCholesky0 ic(a);
  ic.factorize(a);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  ASSERT_TRUE(ic.factor().same_pattern(chol.factor()));
  for (index_t p = 0; p < ic.factor().nnz(); ++p)
    EXPECT_NEAR(ic.factor().values[p], chol.factor().values[p], 1e-10);
}

TEST(Ic0, PatternIsExactlyTrilA) {
  const CscMatrix a = gen::grid2d_laplacian(10, 10);
  lu::IncompleteCholesky0 ic(a);
  ic.factorize(a);
  EXPECT_TRUE(ic.factor().same_pattern(a));
}

TEST(Ic0, MatchesFactorOnStoredPattern) {
  // On the stored pattern, LL^T must reproduce A exactly (the defining
  // property of IC(0) for M-matrices).
  const CscMatrix a = gen::grid2d_laplacian(9, 9);
  lu::IncompleteCholesky0 ic(a);
  ic.factorize(a);
  const CscMatrix& l = ic.factor();
  const CscMatrix lt = transpose(l);
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      const index_t i = a.rowind[p];
      // (L L^T)(i,j) = sum_k L(i,k) L(j,k).
      value_t s = 0.0;
      for (index_t q = lt.col_begin(j); q < lt.col_end(j); ++q) {
        const index_t k = lt.rowind[q];
        s += l.at(i, k) * lt.values[q];
      }
      EXPECT_NEAR(s, a.values[p], 1e-9) << i << "," << j;
    }
  }
}

TEST(Ic0, PreconditionedResidualDecreases) {
  // One application of the IC(0) preconditioner must reduce the residual
  // of a Richardson step dramatically on a diagonally dominant system.
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  lu::IncompleteCholesky0 ic(a);
  ic.factorize(a);
  const index_t n = a.cols();
  const std::vector<value_t> b = gen::dense_rhs(n, 2);
  std::vector<value_t> z(b);
  ic.apply(z);  // z ~ A^{-1} b
  EXPECT_LT(residual_inf_norm_symmetric_lower(a, z, b),
            0.5 * *std::max_element(b.begin(), b.end(),
                                    [](value_t p, value_t q) {
                                      return std::abs(p) < std::abs(q);
                                    }));
}

// --- Level-set parallel executors --------------------------------------

TEST(LevelSet, ColumnScheduleIsValidTopologicalPartition) {
  const CscMatrix a = gen::grid2d_laplacian(11, 11);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix& l = chol.factor();
  const parallel::LevelSchedule s = parallel::level_schedule_columns(l);
  ASSERT_EQ(static_cast<index_t>(s.items.size()), l.cols());
  std::vector<index_t> level_of(static_cast<std::size_t>(l.cols()));
  for (index_t lev = 0; lev < s.levels(); ++lev)
    for (index_t t = s.level_ptr[lev]; t < s.level_ptr[lev + 1]; ++t)
      level_of[s.items[t]] = lev;
  for (index_t j = 0; j < l.cols(); ++j)
    for (index_t p = l.col_begin(j) + 1; p < l.col_end(j); ++p)
      EXPECT_LT(level_of[j], level_of[l.rowind[p]]);
}

TEST(LevelSet, ParallelTrisolveMatchesSequentialBitwise) {
  const CscMatrix a = gen::grid2d_laplacian(15, 15);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix& l = chol.factor();
  // The identity aggregate: one task per column at its flat level.
  const parallel::AggregateSchedule agg = parallel::coarsen_schedule_columns(
      l, parallel::level_schedule_columns(l),
      parallel::CoarsenOptions{false, false});
  const parallel::UpdateSlotMap umap = parallel::update_slots_columns(l);
  std::vector<value_t> terms(static_cast<std::size_t>(umap.slots()));
  const std::vector<value_t> b = gen::dense_rhs(l.cols(), 4);
  std::vector<value_t> x_par(b), x_seq(b);
  parallel::parallel_trisolve(l, agg, umap, x_par, terms);
  solvers::trisolve_naive(l, x_seq);
  // Level-private accumulation folds each row's updates in the serial
  // column order: the parallel solve is bit-identical, not merely close.
  for (index_t i = 0; i < l.cols(); ++i) EXPECT_EQ(x_par[i], x_seq[i]) << i;
}

TEST(LevelSet, ParallelCholeskyMatchesSequential) {
  for (int c = 0; c < 3; ++c) {
    const CscMatrix a = c == 0   ? gen::grid2d_laplacian(14, 14)
                        : c == 1 ? gen::block_structural(7, 7, 3, 5)
                                 : gen::random_spd(200, 3.0, 9);
    core::PlannerConfig config;
    config.options.vsblock_min_avg_size = 0.0;
    config.options.vsblock_min_avg_width = 0.0;
    config.enable_parallel = false;
    const core::CholeskyPlan plan = core::Planner(config).plan_cholesky(a);
    const core::CholeskySets& sets = plan.sets;
    const parallel::AggregateSchedule identity =
        support::supernode_schedule(plan, a, /*coarsen=*/false);
    std::vector<value_t> panels(
        static_cast<std::size_t>(sets.layout.total_values()));
    parallel::parallel_cholesky(sets, identity, a, panels);
    const CscMatrix l =
        panels_to_csc(sets.layout, panels, symbolic_cholesky(a).l_pattern);
    solvers::SimplicialCholesky ref(a);
    ref.factorize(a);
    ASSERT_TRUE(l.same_pattern(ref.factor()));
    for (index_t p = 0; p < l.nnz(); ++p)
      ASSERT_NEAR(l.values[p], ref.factor().values[p], 1e-8)
          << "case " << c << " nz " << p;
  }
}

TEST(LevelSet, SupernodeScheduleRespectsEtree) {
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  const SymbolicFactor sym = symbolic_cholesky(a);
  const SupernodePartition sn = supernodes_cholesky(sym.parent, sym.colcount);
  const parallel::LevelSchedule sched =
      parallel::level_schedule_supernodes(sn, sym.parent);
  const std::vector<index_t> sparent = supernode_etree(sn, sym.parent);
  std::vector<index_t> level_of(sparent.size());
  for (index_t lev = 0; lev < sched.levels(); ++lev)
    for (index_t t = sched.level_ptr[lev]; t < sched.level_ptr[lev + 1]; ++t)
      level_of[sched.items[t]] = lev;
  for (std::size_t s = 0; s < sparent.size(); ++s)
    if (sparent[s] != -1) EXPECT_LT(level_of[s], level_of[sparent[s]]);
}

}  // namespace
}  // namespace sympiler
