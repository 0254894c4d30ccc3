// Supernode detection — the paper's VS-Block block-sets (Table 1).
//
// Two inspection strategies are implemented, matching the paper:
//  * Cholesky: etree + column counts ("up-traversal"). Columns j-1, j merge
//    when colcount(j-1) == colcount(j) + 1 (equal ignoring the diagonal of
//    j-1) and j-1 is the only child of j in the etree (paper section 3.2).
//  * Triangular solve: node equivalence on DG_L. Consecutive columns merge
//    when the off-diagonal pattern of column j-1 equals the full pattern of
//    column j (outgoing edges go to the same destinations, paper 3.1).
//
// Supernodal Cholesky plans then amalgamate the fundamental partition the
// way CHOLMOD does (relaxed supernodes, Ashcraft & Grimes 1989): a
// supernode merges into its supernodal-etree parent when the merged
// panel's explicit zeros stay within a width-dependent budget, trading
// panel storage for fewer, wider dense blocks.
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler {

/// A partition of columns 0..n-1 into contiguous supernodes.
struct SupernodePartition {
  /// start[s]..start[s+1]-1 are the columns of supernode s; size nsuper+1.
  std::vector<index_t> start;
  /// column -> owning supernode; size n.
  std::vector<index_t> col_to_super;

  [[nodiscard]] index_t count() const {
    return static_cast<index_t>(start.size()) - 1;
  }
  [[nodiscard]] index_t width(index_t s) const {
    return start[s + 1] - start[s];
  }
  /// Mean supernode width in columns (paper's VS-Block threshold input
  /// is derived from participating supernode sizes).
  [[nodiscard]] double average_width() const;
  /// Mean width over supernodes of width >= 2 (the "participating" ones);
  /// 0 if none.
  [[nodiscard]] double average_width_participating() const;

  /// Check the partition tiles [0, n) contiguously.
  [[nodiscard]] bool valid(index_t n) const;

  /// Heap bytes of the partition arrays (plan-size accounting).
  [[nodiscard]] std::size_t bytes() const {
    return (start.size() + col_to_super.size()) * sizeof(index_t);
  }
};

/// Options controlling supernode formation.
struct SupernodeOptions {
  index_t max_width = 256;  ///< cap panel width to bound temp storage
};

/// Cholesky strategy: fundamental supernodes from the etree + colcounts.
[[nodiscard]] SupernodePartition supernodes_cholesky(
    std::span<const index_t> parent, std::span<const index_t> colcount,
    const SupernodeOptions& opt = {});

/// Relaxed amalgamation of a fundamental Cholesky partition, with
/// CHOLMOD's default thresholds. Walking from the last supernode down,
/// supernode j merges into the group starting at j+1 when j+1 is j's
/// parent in the supernodal etree and the merged panel of w columns
/// passes the threshold table: always when w <= 4, otherwise only while
/// its explicit-zero fraction is < 0.8 up to w = 16, < 0.1 up to 48 and
/// < 0.05 beyond; never past opt.max_width. The zero fraction is the
/// share of the merged panel's lower trapezoid that L leaves structurally
/// zero. A merged supernode's panel rows are its own columns followed by
/// the below-diagonal pattern of its last column, which contains every
/// member column's pattern (etree containment).
[[nodiscard]] SupernodePartition amalgamate_supernodes(
    const SupernodePartition& fundamental, std::span<const index_t> parent,
    std::span<const index_t> colcount, const SupernodeOptions& opt = {});

/// Triangular-solve strategy: node equivalence on DG_L of a given factor L.
[[nodiscard]] SupernodePartition supernodes_node_equivalence(
    const CscMatrix& l, const SupernodeOptions& opt = {});

/// Verify the supernodal invariant against an explicit L pattern: within a
/// supernode the diagonal block is full lower-triangular and all columns
/// share the same below-block row set.
[[nodiscard]] bool supernodes_consistent(const SupernodePartition& sn,
                                         const CscMatrix& l_pattern);

/// Supernodal elimination forest: parent supernode of s is the supernode
/// owning etree-parent of s's last column (-1 for roots). Input `parent`
/// is the column etree.
[[nodiscard]] std::vector<index_t> supernode_etree(
    const SupernodePartition& sn, std::span<const index_t> parent);

}  // namespace sympiler
