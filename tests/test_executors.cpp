// Property tests for the Sympiler executors: every combination of
// inspector-guided and low-level transformations must agree with the
// library baselines on every generator regime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/cholesky_executor.h"
#include "core/inspector.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "graph/reach.h"
#include "lu/lu.h"
#include "order/rcm.h"
#include "solvers/simplicial.h"
#include "solvers/trisolve.h"
#include "sparse/ops.h"
#include "support/trisolve_oracle.h"

namespace sympiler {
namespace {

CscMatrix case_matrix(int c) {
  switch (c) {
    case 0: return gen::grid2d_laplacian(13, 13);
    case 1: return gen::grid2d_laplacian(9, 40, gen::GridOrder::Natural);
    case 2: return gen::grid3d_laplacian(6, 6, 6);
    case 3: return gen::block_structural(8, 8, 3, 42);
    case 4: return gen::random_spd(180, 2.5, 7);
    case 5: return gen::banded_spd(100, 12, 21);
    case 6: return gen::power_grid(250, 60, 5);
    // Natural-order strip: its simplicial updates are contiguous row runs
    // of 1 to 16 rows, on both sides of kDenseRunMin.
    case 7: return gen::grid2d_laplacian(16, 30, gen::GridOrder::Natural);
    default: return gen::grid2d_laplacian(3, 3);
  }
}
constexpr int kNumCases = 9;
constexpr int kStripCase = 7;

core::SympilerOptions make_options(bool vs, bool vi, bool low) {
  core::SympilerOptions opt;
  opt.vs_block = vs;
  opt.vi_prune = vi;
  opt.low_level = low;
  opt.vsblock_min_avg_size = 0.0;
  opt.vsblock_min_avg_width = 0.0;  // force VS-Block on when requested
  return opt;
}

using ExecParam = std::tuple<int, int>;  // (case, option combo 0..7)

class TriSolveExec : public ::testing::TestWithParam<ExecParam> {};

TEST_P(TriSolveExec, MatchesNaiveSolve) {
  const auto [c, combo] = GetParam();
  const CscMatrix a = case_matrix(c);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix& l = chol.factor();
  const index_t n = l.cols();

  const std::vector<value_t> b = gen::sparse_rhs(n, 1 + n / 50, 1234 + c);
  const core::SympilerOptions opt =
      make_options(combo & 1, combo & 2, combo & 4);
  core::TriSolveExecutor exec(l, {}, opt);  // empty beta replaced below

  // Re-inspect with the real beta.
  std::vector<index_t> beta;
  for (index_t i = 0; i < n; ++i)
    if (b[i] != 0.0) beta.push_back(i);
  core::TriSolveExecutor exec2(l, beta, opt);

  std::vector<value_t> x(b), xref(b);
  exec2.solve(x);
  solvers::trisolve_naive(l, xref);
  for (index_t i = 0; i < n; ++i)
    ASSERT_NEAR(x[i], xref[i], 1e-11)
        << "case " << c << " combo " << combo << " at " << i;
  EXPECT_LT(residual_inf_norm(l, x, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TriSolveExec,
    ::testing::Combine(::testing::Range(0, kNumCases),
                       ::testing::Range(0, 8)));

class CholeskyExec : public ::testing::TestWithParam<ExecParam> {};

TEST_P(CholeskyExec, MatchesSimplicialBaseline) {
  const auto [c, combo] = GetParam();
  const CscMatrix a = case_matrix(c);
  const core::SympilerOptions opt =
      make_options(combo & 1, combo & 2, combo & 4);

  core::CholeskyExecutor exec(a, opt);
  exec.factorize(a);
  const CscMatrix l = exec.factor_csc();
  l.validate();

  solvers::SimplicialCholesky ref(a);
  ref.factorize(a);
  ASSERT_TRUE(l.same_pattern(ref.factor()))
      << "case " << c << " combo " << combo;
  // A simplicial plan runs the baseline's operation sequence (dense row
  // runs included), so its factor and solve are the same bits;
  // supernodal plans reassociate the updates.
  const bool simplicial = !exec.vs_block_applied();
  for (index_t p = 0; p < l.nnz(); ++p) {
    if (simplicial) {
      ASSERT_EQ(l.values[p], ref.factor().values[p])
          << "case " << c << " combo " << combo << " at nz " << p;
    } else {
      ASSERT_NEAR(l.values[p], ref.factor().values[p], 1e-8)
          << "case " << c << " combo " << combo << " at nz " << p;
    }
  }
  if (!simplicial) return;
  const std::vector<value_t> b = gen::dense_rhs(a.cols(), 3);
  std::vector<value_t> x(b), xref(b);
  exec.solve(x);
  ref.solve(xref);
  for (index_t i = 0; i < a.cols(); ++i)
    ASSERT_EQ(x[i], xref[i]) << "case " << c << " combo " << combo;
}

TEST_P(CholeskyExec, SolveResidualSmall) {
  const auto [c, combo] = GetParam();
  const CscMatrix a = case_matrix(c);
  const core::SympilerOptions opt =
      make_options(combo & 1, combo & 2, combo & 4);
  core::CholeskyExecutor exec(a, opt);
  exec.factorize(a);
  const std::vector<value_t> b = gen::dense_rhs(a.cols(), 5);
  std::vector<value_t> x(b);
  exec.solve(x);
  EXPECT_LT(residual_inf_norm_symmetric_lower(a, x, b), 1e-8)
      << "case " << c << " combo " << combo;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CholeskyExec,
    ::testing::Combine(::testing::Range(0, kNumCases),
                       ::testing::Range(0, 8)));

TEST(CholeskyExecutor, StripCaseRunsBothUpdateLoops) {
  // The strip's updates mix runs shorter and longer than kDenseRunMin, so
  // the bitwise sweep above runs the dense and the indexed loop.
  const CscMatrix a = case_matrix(kStripCase);
  const core::CholeskyExecutor exec(a, make_options(false, true, true));
  ASSERT_FALSE(exec.vs_block_applied());
  const core::DenseRunShare share =
      core::dense_run_share(exec.sets().sym.l_pattern);
  EXPECT_GT(share.factor, 0.5);
  EXPECT_LT(share.factor, 1.0);
  EXPECT_GT(share.solve, 0.5);
  EXPECT_LT(share.solve, 1.0);
  // --explain reports the share for simplicial plans only.
  EXPECT_NE(exec.plan().summary().find("dense row runs"), std::string::npos);
  const core::CholeskyExecutor supernodal(a, make_options(true, true, true));
  ASSERT_TRUE(supernodal.vs_block_applied());
  EXPECT_EQ(supernodal.plan().summary().find("dense row runs"),
            std::string::npos);
}

TEST(CholeskyExecutor, VsBlockThresholdControlsPath) {
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  core::SympilerOptions opt;
  opt.vsblock_min_avg_size = 1e9;  // unreachable threshold
  core::CholeskyExecutor simplicial_path(a, opt);
  EXPECT_FALSE(simplicial_path.vs_block_applied());
  opt.vsblock_min_avg_size = 0.0;
  opt.vsblock_min_avg_width = 0.0;
  core::CholeskyExecutor supernodal_path(a, opt);
  EXPECT_TRUE(supernodal_path.vs_block_applied());
}

TEST(CholeskyExecutor, RefactorizeReusesInspection) {
  CscMatrix a = gen::block_structural(6, 6, 3, 9);
  core::CholeskyExecutor exec(a, make_options(true, true, true));
  exec.factorize(a);
  const value_t before = exec.factor_csc().values[0];
  for (auto& v : a.values) v *= 9.0;
  exec.factorize(a);
  EXPECT_NEAR(exec.factor_csc().values[0], 3.0 * before, 1e-10);
}

TEST(CholeskyExecutor, NonSpdThrows) {
  std::vector<Triplet> trip = {{0, 0, 1.0}, {1, 0, 5.0}, {1, 1, 1.0}};
  const CscMatrix a = CscMatrix::from_triplets(2, 2, trip);
  core::CholeskyExecutor exec(a, make_options(true, true, true));
  EXPECT_THROW(exec.factorize(a), numerical_error);
  core::CholeskyExecutor simp(a, make_options(false, true, true));
  EXPECT_THROW(simp.factorize(a), numerical_error);
}

TEST(CholeskyExecutor, SolveRejectsAWrongLengthRhsOnEveryPath) {
  // The length check runs before either path touches the RHS: a short
  // span must not be written past its end, nor a long one solved as if
  // it had n entries. The short span is a prefix of an owned buffer, so a
  // missing check cannot write outside the test's memory.
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  const index_t n = a.cols();
  for (const bool vs : {true, false}) {
    core::CholeskyExecutor exec(a, make_options(vs, true, true));
    ASSERT_EQ(exec.vs_block_applied(), vs);
    exec.factorize(a);
    const std::vector<value_t> rhs(static_cast<std::size_t>(n) + 3, 1.0);
    std::vector<value_t> buf = rhs;
    EXPECT_THROW(exec.solve(std::span<value_t>(buf).first(n - 7)),
                 invalid_matrix_error)
        << "vs_block " << vs;
    EXPECT_THROW(exec.solve(buf), invalid_matrix_error) << "vs_block " << vs;
    EXPECT_EQ(buf, rhs) << "vs_block " << vs;
  }
}

TEST(TriSolveExecutor, PeelColcountChangesSpeedNeverBits) {
  // Column j holds 1 + j % 9 below-diagonal entries (fewer near the end),
  // so across the peel thresholds the pruned solve runs the 4-way body,
  // its remainder loop and the plain loop. Every threshold must give the
  // bits of the library's reach-set solve.
  const index_t n = 120;
  std::vector<Triplet> trips;
  for (index_t j = 0; j < n; ++j) {
    trips.push_back({j, j, 2.0 + 0.01 * static_cast<value_t>(j)});
    const index_t count = std::min<index_t>(1 + j % 9, n - 1 - j);
    const index_t stride = j + 1 + 3 * (count - 1) < n ? 3 : 1;
    for (index_t t = 0; t < count; ++t)
      trips.push_back({j + 1 + t * stride, j,
                       (t % 2 == 0 ? 0.3 : -0.2) / (1.0 + t)});
  }
  const CscMatrix l = CscMatrix::from_triplets(n, n, trips);
  std::vector<value_t> b(static_cast<std::size_t>(n), 0.0);
  b[n / 4] = 1.5;
  b[n / 3] = -0.75;
  const std::vector<index_t> beta = {n / 4, n / 3};

  std::vector<value_t> want;
  for (const index_t peel : {index_t{0}, index_t{1}, index_t{2}, index_t{8},
                             n}) {
    core::SympilerOptions opt;
    opt.vs_block = false;
    opt.peel_colcount = peel;
    const core::TriSolveExecutor exec(l, beta, opt);
    ASSERT_EQ(exec.plan().path, core::ExecutionPath::PrunedTriSolve);
    std::vector<value_t> x = b;
    exec.solve(x);
    if (want.empty()) {
      ASSERT_LT(exec.sets().reach.size(), static_cast<std::size_t>(n));
      want = b;
      solvers::trisolve_decoupled(l, exec.sets().reach, want);
    }
    ASSERT_EQ(std::memcmp(x.data(), want.data(), x.size() * sizeof(value_t)),
              0)
        << "peel_colcount " << peel;
  }
}

TEST(TriSolveExecutor, SupernodePruneSetIsSuffixConsistent) {
  // The supernode-level prune set must cover exactly the reach columns.
  const CscMatrix a = gen::grid2d_laplacian(11, 11);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix& l = chol.factor();
  const std::vector<value_t> b = gen::sparse_rhs(l.cols(), 3, 17);
  core::SympilerOptions opt;
  opt.vsblock_min_avg_size = 0.0;
  opt.vsblock_min_avg_width = 0.0;
  const core::TriSolveSets sets = core::inspect_trisolve_dense_rhs(l, b, opt);

  std::vector<char> covered(static_cast<std::size_t>(l.cols()), 0);
  for (std::size_t k = 0; k < sets.sn_reach.size(); ++k) {
    const index_t s = sets.sn_reach[k];
    for (index_t j = sets.sn_first_col[k]; j < sets.blocks.start[s + 1]; ++j)
      covered[j] = 1;
  }
  for (const index_t j : sets.reach)
    EXPECT_TRUE(covered[j]) << "reach column " << j << " not covered";
}

TEST(TriSolveExecutor, FlopsMatchReachColumns) {
  const CscMatrix a = gen::grid2d_laplacian(8, 8);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix& l = chol.factor();
  const std::vector<value_t> b = gen::sparse_rhs(l.cols(), 2, 3);
  std::vector<index_t> beta;
  for (index_t i = 0; i < l.cols(); ++i)
    if (b[i] != 0.0) beta.push_back(i);
  core::TriSolveExecutor exec(l, beta);
  EXPECT_DOUBLE_EQ(exec.flops(),
                   solvers::trisolve_flops(l, exec.sets().reach));
  EXPECT_GT(exec.flops(), 0.0);
}

// ---------------------------------------------------------------------------
// The one-pass blocked trisolve reads each column of L once but applies
// every term in the two-pass order, so solve() and solve_batch() equal the
// two-pass oracle bit for bit (no host compiler needed, unlike the
// PlanCompiledTriSolve sweep).
// ---------------------------------------------------------------------------

void expect_one_pass_matches_two_pass(const CscMatrix& l,
                                      const std::vector<value_t>& b,
                                      const core::SympilerOptions& opt,
                                      const std::string& what) {
  const index_t n = l.cols();
  std::vector<index_t> beta;
  for (index_t i = 0; i < n; ++i)
    if (b[i] != 0.0) beta.push_back(i);
  const core::TriSolveExecutor exec(l, beta, opt);
  ASSERT_EQ(exec.plan().path, core::ExecutionPath::BlockedTriSolve) << what;

  // Five right-hand sides with b's pattern and different values.
  constexpr index_t kRhs = 5;
  const auto un = static_cast<std::size_t>(n);
  std::vector<value_t> xs(un * kRhs);
  for (index_t r = 0; r < kRhs; ++r)
    for (std::size_t i = 0; i < un; ++i) xs[r * un + i] = b[i] * (1.0 + r);
  std::vector<value_t> want = xs;
  for (index_t r = 0; r < kRhs; ++r)
    support::blocked_trisolve_two_pass(
        exec.plan(), l, std::span<value_t>(want).subspan(r * un, un));

  std::vector<value_t> x(xs.begin(), xs.begin() + n);
  exec.solve(x);
  ASSERT_EQ(std::memcmp(x.data(), want.data(), un * sizeof(value_t)), 0)
      << what << ": solve() differs from the two-pass oracle";
  exec.solve_batch(xs, kRhs);
  ASSERT_EQ(std::memcmp(xs.data(), want.data(), xs.size() * sizeof(value_t)),
            0)
      << what << ": solve_batch() differs from the two-pass oracle";
}

TEST(TriSolveOnePass, SolveAndBatchMatchTwoPassOracleOnEveryCase) {
  for (int c = 0; c < kNumCases; ++c) {
    const CscMatrix a = case_matrix(c);
    solvers::SimplicialCholesky chol(a);
    chol.factorize(a);
    const CscMatrix& l = chol.factor();
    const std::vector<value_t> b =
        gen::sparse_rhs(l.cols(), 1 + l.cols() / 50, 4321 + c);
    for (int combo = 0; combo < 4; ++combo)
      expect_one_pass_matches_two_pass(
          l, b, make_options(true, combo & 1, combo & 2),
          "case " + std::to_string(c) + " combo " + std::to_string(combo));
  }
}

TEST(TriSolveOnePass, DenseCornerLuFactorMatchesTwoPassOracle) {
  // A power grid ordered by minimum degree and factored by the GP LU (the
  // transient-simulation input): its hub buses leave a dense corner of
  // max-width blocks whose tails are longer than the blocks are wide.
  const index_t n = 12000;
  const CscMatrix raw = gen::power_grid(n, n / 5, 11);
  const CscMatrix lower =
      permute_symmetric_lower(raw, order::minimum_degree(raw));
  const CscMatrix a = symmetric_full_from_lower(lower);
  lu::LuFactor lu(a);
  lu.factorize(a);
  const CscMatrix l = lu.lower();
  const std::vector<value_t> b = gen::sparse_rhs(n, 24, 5);

  core::SympilerOptions opt;
  std::vector<index_t> beta;
  for (index_t i = 0; i < n; ++i)
    if (b[i] != 0.0) beta.push_back(i);
  const core::TriSolveExecutor probe(l, beta, opt);
  const core::TriSolveSets& sets = probe.sets();
  bool dense_corner = false;
  for (const index_t s : sets.sn_reach) {
    const index_t c1 = sets.blocks.start[s];
    const index_t w = sets.blocks.start[s + 1] - c1;
    if (w == opt.max_supernode_width && sets.colcount[c1] - w > w)
      dense_corner = true;
  }
  ASSERT_TRUE(dense_corner)
      << "no reached block of width " << opt.max_supernode_width
      << " with a longer tail";

  expect_one_pass_matches_two_pass(l, b, opt, "dense corner");
  opt.low_level = false;
  expect_one_pass_matches_two_pass(l, b, opt, "dense corner, unpaired");
}

}  // namespace
}  // namespace sympiler
