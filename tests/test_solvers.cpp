// Tests for the library baselines: triangular solve variants (Figure 1)
// and the simplicial / supernodal Cholesky factorizations.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "gen/generators.h"
#include "graph/reach.h"
#include "graph/symbolic.h"
#include "solvers/simplicial.h"
#include "solvers/supernodal.h"
#include "solvers/trisolve.h"
#include "sparse/ops.h"

namespace sympiler {
namespace {

/// A small well-conditioned lower-triangular matrix from a Cholesky factor
/// of a generated SPD matrix.
CscMatrix small_factor(index_t grid, std::uint64_t /*seed*/) {
  const CscMatrix a = gen::grid2d_laplacian(grid, grid);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  return chol.factor();
}

TEST(TriSolve, AllVariantsAgreeOnSparseRhs) {
  const CscMatrix l = small_factor(9, 0);
  const index_t n = l.cols();
  const std::vector<value_t> b = gen::sparse_rhs(n, 3, 13);

  std::vector<value_t> x_naive(b), x_lib(b), x_dec(b);
  solvers::trisolve_naive(l, x_naive);
  solvers::trisolve_library(l, x_lib);
  const std::vector<index_t> rs = reach_from_dense(l, b);
  solvers::trisolve_decoupled(l, rs, x_dec);

  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_lib[i], x_naive[i], 1e-12);
    EXPECT_NEAR(x_dec[i], x_naive[i], 1e-12);
  }
  EXPECT_LT(residual_inf_norm(l, x_naive, b), 1e-10);
}

TEST(TriSolve, SolutionPatternEqualsReachSet) {
  const CscMatrix l = small_factor(8, 0);
  const index_t n = l.cols();
  const std::vector<value_t> b = gen::sparse_rhs(n, 2, 99);
  std::vector<value_t> x(b);
  solvers::trisolve_naive(l, x);
  const std::vector<index_t> rs = reach_from_dense(l, b);
  std::vector<char> in_reach(static_cast<std::size_t>(n), 0);
  for (const index_t j : rs) in_reach[j] = 1;
  for (index_t i = 0; i < n; ++i) {
    if (!in_reach[i])
      EXPECT_EQ(x[i], 0.0) << "nonzero outside the reach-set at " << i;
  }
}

TEST(TriSolve, TransposeSolve) {
  const CscMatrix l = small_factor(7, 0);
  const index_t n = l.cols();
  const std::vector<value_t> xref = gen::dense_rhs(n, 3);
  // b = L^T xref
  std::vector<value_t> b(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = l.col_begin(j); p < l.col_end(j); ++p)
      b[j] += l.values[p] * xref[l.rowind[p]];
  std::vector<value_t> x(b);
  solvers::trisolve_transpose(l, x);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-9);
}

TEST(TriSolve, ZeroDiagonalThrows) {
  std::vector<Triplet> trip = {{0, 0, 0.0}, {1, 1, 1.0}};
  const CscMatrix l = CscMatrix::from_triplets(2, 2, trip);
  std::vector<value_t> x = {1.0, 1.0};
  EXPECT_THROW(solvers::trisolve_naive(l, x), numerical_error);
}

TEST(TriSolve, FlopCount) {
  // Column 0 with two offdiagonals: 1 + 2*2 = 5 flops; column 1 diag only:
  // 1 flop.
  std::vector<Triplet> trip = {
      {0, 0, 1.0}, {2, 0, 1.0}, {3, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0},
      {3, 3, 1.0}};
  const CscMatrix l = CscMatrix::from_triplets(4, 4, trip);
  const std::vector<index_t> rs = {0, 1};
  EXPECT_DOUBLE_EQ(solvers::trisolve_flops(l, rs), 6.0);
}

// --- Cholesky baselines --------------------------------------------------

struct CholCase {
  const char* name;
  CscMatrix a;
};

std::vector<CholCase> cholesky_cases() {
  std::vector<CholCase> cases;
  cases.push_back({"grid2d_nd", gen::grid2d_laplacian(13, 13)});
  cases.push_back({"grid2d_natural",
                   gen::grid2d_laplacian(11, 17, gen::GridOrder::Natural)});
  cases.push_back({"grid3d", gen::grid3d_laplacian(6, 6, 6)});
  cases.push_back({"block_structural", gen::block_structural(7, 7, 3, 42)});
  cases.push_back({"random_spd", gen::random_spd(150, 3.0, 7)});
  cases.push_back({"banded", gen::banded_spd(120, 9, 21)});
  cases.push_back({"power_grid", gen::power_grid(200, 40, 5)});
  cases.push_back({"tiny", gen::grid2d_laplacian(2, 2)});
  return cases;
}

class CholeskyBaselines : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyBaselines, SimplicialFactorSatisfiesLLt) {
  CholCase c = cholesky_cases()[static_cast<std::size_t>(GetParam())];
  solvers::SimplicialCholesky chol(c.a);
  chol.factorize(c.a);
  EXPECT_LT(llt_residual_inf_norm(chol.factor(), c.a), 1e-8) << c.name;
}

TEST_P(CholeskyBaselines, SupernodalMatchesSimplicial) {
  CholCase c = cholesky_cases()[static_cast<std::size_t>(GetParam())];
  solvers::SimplicialCholesky simp(c.a);
  simp.factorize(c.a);
  solvers::SupernodalCholesky super(c.a);
  super.factorize(c.a);
  const CscMatrix ls = super.factor_csc();
  ls.validate();
  EXPECT_TRUE(ls.same_pattern(simp.factor())) << c.name;
  for (index_t p = 0; p < ls.nnz(); ++p)
    ASSERT_NEAR(ls.values[p], simp.factor().values[p], 1e-8)
        << c.name << " value index " << p;
}

TEST_P(CholeskyBaselines, SolveProducesSmallResidual) {
  CholCase c = cholesky_cases()[static_cast<std::size_t>(GetParam())];
  const index_t n = c.a.cols();
  const std::vector<value_t> b = gen::dense_rhs(n, 17);

  std::vector<value_t> x1(b);
  solvers::SimplicialCholesky simp(c.a);
  simp.factorize(c.a);
  simp.solve(x1);
  EXPECT_LT(residual_inf_norm_symmetric_lower(c.a, x1, b), 1e-8) << c.name;

  std::vector<value_t> x2(b);
  solvers::SupernodalCholesky super(c.a);
  super.factorize(c.a);
  super.solve(x2);
  EXPECT_LT(residual_inf_norm_symmetric_lower(c.a, x2, b), 1e-8) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Cases, CholeskyBaselines, ::testing::Range(0, 8));

TEST(Cholesky, NonSpdThrows) {
  // Indefinite: diagonal too small for the off-diagonal couplings.
  std::vector<Triplet> trip = {
      {0, 0, 1.0}, {1, 0, 5.0}, {1, 1, 1.0}};
  const CscMatrix a = CscMatrix::from_triplets(2, 2, trip);
  solvers::SimplicialCholesky simp(a);
  EXPECT_THROW(simp.factorize(a), numerical_error);
  solvers::SupernodalCholesky super(a);
  EXPECT_THROW(super.factorize(a), numerical_error);
}

TEST(Cholesky, SolveBeforeFactorizeThrows) {
  const CscMatrix a = gen::grid2d_laplacian(3, 3);
  solvers::SimplicialCholesky simp(a);
  std::vector<value_t> b(9, 1.0);
  EXPECT_THROW(simp.solve(b), invalid_matrix_error);
  solvers::SupernodalCholesky super(a);
  EXPECT_THROW(super.solve(b), invalid_matrix_error);
}

TEST(Cholesky, RefactorizeWithNewValuesSamePattern) {
  // The static-sparsity workflow of the paper: analyze once, refactor with
  // changed values.
  CscMatrix a = gen::grid2d_laplacian(8, 8);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const value_t before = chol.factor().values[0];
  for (auto& v : a.values) v *= 4.0;  // scale: L scales by 2
  chol.factorize(a);
  EXPECT_NEAR(chol.factor().values[0], 2.0 * before, 1e-12);
  EXPECT_LT(llt_residual_inf_norm(chol.factor(), a), 1e-9);
}

TEST(Supernodal, UpdateListsCoverEveryOffBlockRow) {
  const CscMatrix a = gen::grid2d_laplacian(10, 10);
  const SymbolicFactor sym = symbolic_cholesky(a);
  const SupernodePartition part =
      supernodes_cholesky(sym.parent, sym.colcount);
  const solvers::SupernodalLayout layout =
      solvers::SupernodalLayout::build(sym, part);
  const solvers::UpdateLists lists = solvers::compute_update_lists(layout);
  // Each descendant's below-diagonal rows must be covered exactly once by
  // its UpdateRefs, in order.
  std::vector<std::vector<std::pair<index_t, index_t>>> segs(
      static_cast<std::size_t>(layout.nsuper()));
  for (index_t s = 0; s < layout.nsuper(); ++s)
    for (index_t u = lists.ptr[s]; u < lists.ptr[s + 1]; ++u) {
      const solvers::UpdateRef r = lists.refs[u];
      segs[r.d].push_back({r.p1, r.p2});
      // All rows in [p1, p2) must belong to supernode s.
      const index_t* rows = layout.srows.data() + layout.srow_ptr[r.d];
      for (index_t p = r.p1; p < r.p2; ++p)
        EXPECT_EQ(layout.sn.col_to_super[rows[p]], s);
    }
  for (index_t d = 0; d < layout.nsuper(); ++d) {
    auto& v = segs[d];
    std::sort(v.begin(), v.end());
    index_t expect_start = layout.width(d);
    for (const auto& [p1, p2] : v) {
      EXPECT_EQ(p1, expect_start) << "gap in descendant " << d;
      expect_start = p2;
    }
    EXPECT_EQ(expect_start, layout.nrows(d)) << "descendant " << d;
  }
}

TEST(Supernodal, PanelsToCscRoundTrip) {
  const CscMatrix a = gen::block_structural(5, 5, 2, 3);
  solvers::SupernodalCholesky chol(a);
  chol.factorize(a);
  const CscMatrix l = chol.factor_csc();
  l.validate();
  EXPECT_TRUE(l.is_lower_triangular());
  EXPECT_EQ(l.nnz(), symbolic_cholesky(a).fill_nnz);
}

}  // namespace
}  // namespace sympiler
