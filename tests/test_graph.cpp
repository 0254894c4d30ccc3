// Tests for the symbolic graph library: reach-sets (Gilbert-Peierls),
// elimination trees (Liu), row patterns (ereach), the fill pattern of L
// (paper Eq. 1), and supernode detection. Includes the paper's Figure 1
// worked example and brute-force cross-checks on random matrices.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "gen/generators.h"
#include "graph/etree.h"
#include "graph/reach.h"
#include "graph/supernodes.h"
#include "graph/symbolic.h"
#include "sparse/ops.h"

namespace sympiler {
namespace {

/// Lower-triangular L consistent with the paper's Figure 1 (0-based):
/// beta = {0, 5}, reach = {0, 5, 6, 7, 8, 9}, white nodes {1, 2, 3, 4}.
CscMatrix figure1_matrix() {
  std::vector<Triplet> trip;
  auto col = [&](index_t j, std::initializer_list<index_t> offdiag) {
    trip.push_back({j, j, 2.0});
    for (const index_t i : offdiag) trip.push_back({i, j, -1.0});
  };
  col(0, {5, 8});
  col(1, {2, 4});
  col(2, {3});
  col(3, {6});
  col(4, {6});
  col(5, {6, 8, 9});
  col(6, {7, 9});
  col(7, {8, 9});
  col(8, {9});
  col(9, {});
  return CscMatrix::from_triplets(10, 10, trip);
}

TEST(Reach, Figure1Example) {
  const CscMatrix l = figure1_matrix();
  const std::vector<index_t> beta = {0, 5};
  const std::vector<index_t> r = reach(l, beta);
  const std::set<index_t> got(r.begin(), r.end());
  const std::set<index_t> expected = {0, 5, 6, 7, 8, 9};
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(is_topological_reach_order(l, r));
}

TEST(Reach, Figure1WhiteNodesSkipped) {
  const CscMatrix l = figure1_matrix();
  const std::vector<index_t> r = reach(l, std::vector<index_t>{0, 5});
  for (const index_t white : {1, 2, 3, 4})
    EXPECT_EQ(std::count(r.begin(), r.end(), white), 0);
}

TEST(Reach, SingleSourceChain) {
  // Bidiagonal L: reach from {0} is everything.
  std::vector<Triplet> trip;
  const index_t n = 6;
  for (index_t j = 0; j < n; ++j) {
    trip.push_back({j, j, 1.0});
    if (j + 1 < n) trip.push_back({j + 1, j, -1.0});
  }
  const CscMatrix l = CscMatrix::from_triplets(n, n, trip);
  const std::vector<index_t> r = reach(l, std::vector<index_t>{0});
  EXPECT_EQ(static_cast<index_t>(r.size()), n);
  EXPECT_TRUE(is_topological_reach_order(l, r));
}

TEST(Reach, EmptyBeta) {
  const CscMatrix l = figure1_matrix();
  EXPECT_TRUE(reach(l, std::vector<index_t>{}).empty());
}

TEST(Reach, OutOfRangeBetaThrows) {
  const CscMatrix l = figure1_matrix();
  EXPECT_THROW(reach(l, std::vector<index_t>{10}), invalid_matrix_error);
}

TEST(Reach, MatchesReferenceOnRandomLowerMatrices) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const index_t n = 50;
    std::vector<Triplet> trip;
    std::uniform_int_distribution<index_t> node(0, n - 1);
    for (index_t j = 0; j < n; ++j) trip.push_back({j, j, 1.0});
    for (int e = 0; e < 120; ++e) {
      index_t a = node(rng), b = node(rng);
      if (a == b) continue;
      trip.push_back({std::max(a, b), std::min(a, b), -0.5});
    }
    const CscMatrix l = CscMatrix::from_triplets(n, n, trip);
    std::vector<index_t> beta = {node(rng), node(rng), node(rng)};
    std::sort(beta.begin(), beta.end());
    beta.erase(std::unique(beta.begin(), beta.end()), beta.end());
    const std::vector<index_t> fast = reach(l, beta);
    const std::vector<index_t> ref = reach_reference(l, beta);
    EXPECT_EQ(std::set<index_t>(fast.begin(), fast.end()),
              std::set<index_t>(ref.begin(), ref.end()));
    EXPECT_TRUE(is_topological_reach_order(l, fast));
  }
}

// Hand-computed 6x6 example (see comments for the derivation).
// A lower pattern: diag + (1,0),(4,0),(3,1),(4,3),(5,2),(5,3).
CscMatrix hand_matrix() {
  std::vector<Triplet> trip;
  for (index_t j = 0; j < 6; ++j) trip.push_back({j, j, 4.0});
  trip.push_back({1, 0, -1.0});
  trip.push_back({4, 0, -1.0});
  trip.push_back({3, 1, -1.0});
  trip.push_back({4, 3, -1.0});
  trip.push_back({5, 2, -1.0});
  trip.push_back({5, 3, -1.0});
  return CscMatrix::from_triplets(6, 6, trip);
}

TEST(Etree, HandExample) {
  // parent[0]=1 (L(1,0)), parent[1]=3 (A(3,1)), parent[2]=5, parent[3]=4,
  // parent[4]=5 (fill via child 3), parent[5]=-1.
  const std::vector<index_t> parent = elimination_tree(hand_matrix());
  const std::vector<index_t> expected = {1, 3, 5, 4, 5, -1};
  EXPECT_EQ(parent, expected);
  EXPECT_TRUE(is_valid_etree(parent));
}

TEST(Etree, DiagonalMatrixIsForestOfRoots) {
  const CscMatrix d = CscMatrix::identity(5);
  const std::vector<index_t> parent = elimination_tree(d);
  for (const index_t p : parent) EXPECT_EQ(p, -1);
}

TEST(Etree, PostorderVisitsChildrenFirst) {
  const std::vector<index_t> parent = elimination_tree(hand_matrix());
  const std::vector<index_t> post = postorder(parent);
  EXPECT_EQ(post.size(), 6u);
  std::vector<index_t> position(6);
  for (index_t k = 0; k < 6; ++k) position[post[k]] = k;
  for (index_t v = 0; v < 6; ++v)
    if (parent[v] != -1) EXPECT_LT(position[v], position[parent[v]]);
}

TEST(Etree, ChildCountsAndLists) {
  const std::vector<index_t> parent = {1, 3, 5, 4, 5, -1};
  const std::vector<index_t> cc = child_counts(parent);
  EXPECT_EQ(cc, (std::vector<index_t>{0, 1, 0, 1, 1, 2}));
  const ChildLists cl = build_child_lists(parent);
  EXPECT_EQ(cl.roots, (std::vector<index_t>{5}));
  // children of 5 in ascending order: 2, 4
  EXPECT_EQ(cl.head[5], 2);
  EXPECT_EQ(cl.next[2], 4);
  EXPECT_EQ(cl.next[4], -1);
}

TEST(Etree, LevelsFromLeaves) {
  const std::vector<index_t> parent = {1, 3, 5, 4, 5, -1};
  const std::vector<index_t> lvl = levels_from_leaves(parent);
  // leaves 0,2: level 0; 1: 1; 3: 2; 4: 3; 5: 4.
  EXPECT_EQ(lvl, (std::vector<index_t>{0, 1, 0, 2, 3, 4}));
}

TEST(Symbolic, HandExampleColcountsAndFill) {
  const SymbolicFactor s = symbolic_cholesky(hand_matrix());
  EXPECT_EQ(s.colcount, (std::vector<index_t>{3, 3, 2, 3, 2, 1}));
  EXPECT_EQ(s.fill_nnz, 14);
  // Fill-in entries: L(4,1) and L(5,4).
  const CscMatrix& lp = s.l_pattern;
  auto has = [&](index_t i, index_t j) {
    for (index_t p = lp.col_begin(j); p < lp.col_end(j); ++p)
      if (lp.rowind[p] == i) return true;
    return false;
  };
  EXPECT_TRUE(has(4, 1));
  EXPECT_TRUE(has(5, 4));
  EXPECT_FALSE(has(5, 0));
}

/// Brute-force filled-graph computation by right-looking elimination on a
/// dense boolean matrix.
CscMatrix brute_force_fill(const CscMatrix& a_lower) {
  const index_t n = a_lower.cols();
  std::vector<std::vector<char>> b(n, std::vector<char>(n, 0));
  for (index_t j = 0; j < n; ++j)
    for (index_t p = a_lower.col_begin(j); p < a_lower.col_end(j); ++p) {
      b[a_lower.rowind[p]][j] = 1;
      b[j][a_lower.rowind[p]] = 1;
    }
  for (index_t j = 0; j < n; ++j) {
    std::vector<index_t> s;
    for (index_t i = j + 1; i < n; ++i)
      if (b[i][j]) s.push_back(i);
    for (std::size_t x = 0; x < s.size(); ++x)
      for (std::size_t y = x + 1; y < s.size(); ++y) {
        b[s[y]][s[x]] = 1;
        b[s[x]][s[y]] = 1;
      }
  }
  std::vector<Triplet> trip;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      if (b[i][j] || i == j) trip.push_back({i, j, 0.0});
  return CscMatrix::from_triplets(n, n, trip);
}

/// The structural regimes the planner sees: meshes (both orderings), 3-D,
/// dof-blocks, irregular random, banded, tree-like, and degenerate.
std::vector<CscMatrix> generator_patterns() {
  std::vector<CscMatrix> mats;
  mats.push_back(gen::grid2d_laplacian(20, 20));
  mats.push_back(gen::grid2d_laplacian(17, 23, gen::GridOrder::Natural));
  mats.push_back(gen::grid3d_laplacian(7, 8, 6));
  mats.push_back(gen::block_structural(8, 9, 3, 42));
  mats.push_back(gen::random_spd(300, 3.0, 7));
  mats.push_back(gen::banded_spd(200, 11, 3));
  mats.push_back(gen::power_grid(400, 60, 9));
  mats.push_back(CscMatrix::identity(50));  // forest of roots, zero fill
  return mats;
}

TEST(Symbolic, GnpCountsMatchNaiveOnEveryGeneratorPattern) {
  // The GNP skeleton/LCA counts never materialize a row pattern; they must
  // nevertheless equal the count-every-ereach reference exactly.
  std::size_t idx = 0;
  for (const CscMatrix& a : generator_patterns()) {
    const SymbolicFactor naive = symbolic_cholesky_naive(a);
    const std::vector<index_t> post = postorder(naive.parent);
    const std::vector<index_t> counts =
        cholesky_counts(a, naive.parent, post);
    EXPECT_EQ(counts, naive.colcount) << "pattern " << idx;
    ++idx;
  }
}

TEST(Symbolic, FusedSweepMatchesNaiveBitForBitOnEveryGeneratorPattern) {
  // The fused one-transpose sweep must reproduce the naive two-pass
  // product exactly: same parent, counts, pattern order, values, flops.
  std::size_t idx = 0;
  for (const CscMatrix& a : generator_patterns()) {
    const SymbolicFactor fast = symbolic_cholesky(a);
    const SymbolicFactor naive = symbolic_cholesky_naive(a);
    EXPECT_EQ(fast.parent, naive.parent) << "pattern " << idx;
    EXPECT_EQ(fast.colcount, naive.colcount) << "pattern " << idx;
    EXPECT_EQ(fast.l_pattern.colptr, naive.l_pattern.colptr)
        << "pattern " << idx;
    EXPECT_EQ(fast.l_pattern.rowind, naive.l_pattern.rowind)
        << "pattern " << idx;  // exact emission order, not just the set
    EXPECT_EQ(fast.l_pattern.values, naive.l_pattern.values)
        << "pattern " << idx;
    EXPECT_EQ(fast.fill_nnz, naive.fill_nnz) << "pattern " << idx;
    EXPECT_EQ(fast.flops, naive.flops) << "pattern " << idx;
    ++idx;
  }
}

TEST(Symbolic, FillPatternSharedUpperAndRowHistogram) {
  const CscMatrix a = gen::grid2d_laplacian(15, 15);
  const CscMatrix upper = transpose(a);
  const SymbolicFactor via_upper = symbolic_cholesky(a, upper);
  const SymbolicFactor direct = symbolic_cholesky(a);
  EXPECT_TRUE(via_upper.l_pattern.equals(direct.l_pattern));

  // The row-offdiag histogram the sweep emits for free must equal the
  // off-diagonal row counts of the pattern's transpose.
  std::vector<index_t> row_off;
  const CscMatrix lp = cholesky_fill_pattern(
      upper, via_upper.parent, via_upper.colcount, /*with_values=*/false,
      &row_off);
  EXPECT_TRUE(lp.same_pattern(direct.l_pattern));
  EXPECT_TRUE(lp.values.empty());
  const CscMatrix lt = transpose(direct.l_pattern);
  for (index_t i = 0; i < a.cols(); ++i) {
    index_t expected = 0;
    for (index_t p = lt.col_begin(i); p < lt.col_end(i); ++p)
      if (lt.rowind[p] < i) ++expected;
    ASSERT_EQ(row_off[i], expected) << "row " << i;
  }
}

TEST(Etree, FromUpperMatchesTransposingVariant) {
  for (const CscMatrix& a : generator_patterns()) {
    EXPECT_EQ(elimination_tree_from_upper(transpose(a)),
              elimination_tree(a));
  }
}

TEST(Symbolic, MatchesBruteForceAndReferenceOnRandom) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const CscMatrix a = gen::random_spd(40, 2.5, 1000 + trial);
    const SymbolicFactor s = symbolic_cholesky(a);
    const CscMatrix brute = brute_force_fill(a);
    EXPECT_TRUE(s.l_pattern.same_pattern(brute))
        << "trial " << trial << ": ereach-based pattern != brute force";
    const CscMatrix ref = symbolic_cholesky_reference(a);
    EXPECT_TRUE(s.l_pattern.same_pattern(ref))
        << "trial " << trial << ": ereach-based pattern != Eq.1 reference";
  }
  (void)rng;
}

TEST(Symbolic, EtreeMatchesMinRowOfFactorPattern) {
  for (int trial = 0; trial < 10; ++trial) {
    const CscMatrix a = gen::random_spd(35, 2.0, 77 + trial);
    const SymbolicFactor s = symbolic_cholesky(a);
    for (index_t j = 0; j < a.cols(); ++j) {
      index_t min_row = -1;
      for (index_t p = s.l_pattern.col_begin(j) + 1;
           p < s.l_pattern.col_end(j); ++p) {
        min_row = s.l_pattern.rowind[p];
        break;
      }
      EXPECT_EQ(s.parent[j], min_row) << "column " << j;
    }
  }
}

TEST(Symbolic, RowPatternsAreTopologicalAndComplete) {
  const CscMatrix a = gen::random_spd(30, 2.0, 5);
  const SymbolicFactor s = symbolic_cholesky(a);
  ERreach er(a, s.parent);
  const CscMatrix lt = transpose(s.l_pattern);
  for (index_t i = 0; i < a.cols(); ++i) {
    const auto rp = er.row_pattern(i);
    // Must equal the off-diagonal pattern of row i of L.
    std::vector<index_t> expected;
    for (index_t p = lt.col_begin(i); p < lt.col_end(i); ++p)
      if (lt.rowind[p] < i) expected.push_back(lt.rowind[p]);
    ASSERT_EQ(rp.size(), expected.size()) << "row " << i;
    std::vector<index_t> got(rp.begin(), rp.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "row " << i;
  }
}

TEST(Supernodes, CholeskyRuleOnGrid) {
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  const SymbolicFactor s = symbolic_cholesky(a);
  const SupernodePartition sn = supernodes_cholesky(s.parent, s.colcount);
  EXPECT_TRUE(sn.valid(a.cols()));
  EXPECT_TRUE(supernodes_consistent(sn, s.l_pattern));
  // Nested dissection on a 12x12 grid must produce some wide supernodes.
  index_t max_w = 0;
  for (index_t i = 0; i < sn.count(); ++i) max_w = std::max(max_w, sn.width(i));
  EXPECT_GE(max_w, 4);
}

TEST(Supernodes, CholeskyRuleOnRandom) {
  for (int trial = 0; trial < 10; ++trial) {
    const CscMatrix a = gen::random_spd(60, 3.0, 900 + trial);
    const SymbolicFactor s = symbolic_cholesky(a);
    const SupernodePartition sn = supernodes_cholesky(s.parent, s.colcount);
    EXPECT_TRUE(supernodes_consistent(sn, s.l_pattern)) << "trial " << trial;
  }
}

TEST(Supernodes, WidthCapRespected) {
  const CscMatrix a = gen::banded_spd(64, 63, 9);  // fully dense: one block
  const SymbolicFactor s = symbolic_cholesky(a);
  SupernodeOptions opt;
  opt.max_width = 8;
  const SupernodePartition sn = supernodes_cholesky(s.parent, s.colcount, opt);
  for (index_t i = 0; i < sn.count(); ++i) EXPECT_LE(sn.width(i), 8);
  EXPECT_TRUE(supernodes_consistent(sn, s.l_pattern));
}

TEST(Supernodes, NodeEquivalenceOnFigure1) {
  const CscMatrix l = figure1_matrix();
  const SupernodePartition sn = supernodes_node_equivalence(l);
  EXPECT_TRUE(sn.valid(10));
  // Columns 8 and 9: offdiag(8) = {9} == pattern(9) = {9} -> same block.
  EXPECT_EQ(sn.col_to_super[8], sn.col_to_super[9]);
  // Columns 0 and 1 clearly differ.
  EXPECT_NE(sn.col_to_super[0], sn.col_to_super[1]);
  EXPECT_TRUE(supernodes_consistent(sn, l));
}

TEST(Supernodes, NodeEquivalenceMatchesCholeskyRuleOnFactors) {
  // On an actual Cholesky factor pattern, node-equivalence blocks must
  // also satisfy the supernodal invariant.
  const CscMatrix a = gen::grid2d_laplacian(10, 10);
  const SymbolicFactor s = symbolic_cholesky(a);
  const SupernodePartition ne = supernodes_node_equivalence(s.l_pattern);
  EXPECT_TRUE(supernodes_consistent(ne, s.l_pattern));
}

TEST(Supernodes, SupernodeEtreeIsForest) {
  const CscMatrix a = gen::grid2d_laplacian(9, 9);
  const SymbolicFactor s = symbolic_cholesky(a);
  const SupernodePartition sn = supernodes_cholesky(s.parent, s.colcount);
  const std::vector<index_t> sp = supernode_etree(sn, s.parent);
  for (index_t i = 0; i < sn.count(); ++i) {
    if (sp[i] != -1) EXPECT_GT(sp[i], i);
  }
}

TEST(Supernodes, AmalgamationMergesEtreeParentsWithinThresholds) {
  const CscMatrix a =
      gen::grid2d_laplacian(32, 32, gen::GridOrder::NestedDissection);
  const SymbolicFactor s = symbolic_cholesky(a);
  const SupernodePartition fund = supernodes_cholesky(s.parent, s.colcount);
  const SupernodePartition merged =
      amalgamate_supernodes(fund, s.parent, s.colcount);
  ASSERT_TRUE(merged.valid(a.cols()));
  EXPECT_LT(merged.count(), fund.count());

  // Every merge joins a fundamental supernode to its supernodal-etree
  // parent: a merged supernode is a run of fundamental ones, each the
  // etree child of the next.
  const std::vector<index_t> fparent = supernode_etree(fund, s.parent);
  for (index_t m = 0; m < merged.count(); ++m) {
    const index_t f1 = fund.col_to_super[merged.start[m]];
    const index_t f2 = fund.col_to_super[merged.start[m + 1] - 1];
    ASSERT_EQ(fund.start[f1], merged.start[m]) << "supernode " << m;
    for (index_t f = f1; f < f2; ++f)
      EXPECT_EQ(fparent[f], f + 1) << "supernode " << m << " piece " << f;
  }

  // No merged panel breaks CHOLMOD's threshold table. The panel rows are
  // the own columns plus the last column's below-diagonal rows; the zero
  // fraction is the share of the lower trapezoid L leaves empty.
  for (index_t m = 0; m < merged.count(); ++m) {
    const index_t w = merged.width(m);
    const index_t last = merged.start[m + 1] - 1;
    const double rows = w + s.colcount[last] - 1;
    double nnz = 0.0;
    for (index_t j = merged.start[m]; j <= last; ++j) nnz += s.colcount[j];
    const double trapezoid = w * (w + 1) / 2.0 + w * (rows - w);
    const double z = 1.0 - nnz / trapezoid;
    EXPECT_LE(w, 256);
    EXPECT_TRUE(w <= 4 || (w <= 16 && z < 0.8) || (w <= 48 && z < 0.1) ||
                z < 0.05)
        << "supernode " << m << ": width " << w << ", zero fraction " << z;
  }
}

}  // namespace
}  // namespace sympiler
