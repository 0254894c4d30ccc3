// Synthetic SPD matrix generators — stand-ins for the SuiteSparse matrices
// of paper Table 2 (the collection is not reachable offline; gen/suite.h
// pairs each paper matrix with the generator that mirrors its structural
// regime). Every generator returns the LOWER triangle of a symmetric
// positive-definite matrix.
//
// Node numbering is controlled by GridOrder: Natural produces banded
// factors with tiny supernodes and large column counts (the regime where
// the paper's VS-Block is skipped), NestedDissection produces separator
// supernodes that grow toward the root (the regime where supernodal codes
// shine).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::gen {

enum class GridOrder {
  Natural,           ///< lexicographic numbering (banded factor)
  NestedDissection,  ///< recursive-bisection numbering (separator supernodes)
};

/// 5-point Dirichlet Laplacian on an nx-by-ny grid (n = nx*ny). SPD.
[[nodiscard]] CscMatrix grid2d_laplacian(index_t nx, index_t ny,
                                         GridOrder order = GridOrder::NestedDissection);

/// 7-point Dirichlet Laplacian on an nx-by-ny-by-nz grid. SPD.
[[nodiscard]] CscMatrix grid3d_laplacian(index_t nx, index_t ny, index_t nz,
                                         GridOrder order = GridOrder::NestedDissection);

/// Structural-mechanics-style assembly: a 2-D grid of nodes with `dofs`
/// unknowns per node; node coupling follows the 9-point stencil and every
/// node pair couples densely across dofs (like the element blocks of
/// cbuckle/gyro/msc23052). Values are randomized but symmetric diagonally
/// dominant, hence SPD.
[[nodiscard]] CscMatrix block_structural(index_t nx, index_t ny, index_t dofs,
                                         std::uint64_t seed,
                                         GridOrder order = GridOrder::NestedDissection);

/// Random sparse SPD: Erdos-Renyi-ish lower pattern with about
/// `avg_offdiag_per_col` strictly-lower entries per column, symmetric
/// diagonally dominant values (circuit-simulation-like irregularity).
[[nodiscard]] CscMatrix random_spd(index_t n, double avg_offdiag_per_col,
                                   std::uint64_t seed);

/// Banded SPD matrix with the given half-bandwidth (dense band).
[[nodiscard]] CscMatrix banded_spd(index_t n, index_t half_bandwidth,
                                   std::uint64_t seed);

/// Power-grid-like topology: a random spanning tree over n buses plus
/// `extra_edges` cross links (the motivating scenario of paper section
/// 1.2: Jacobians of power-flow problems). Very low fill-in.
[[nodiscard]] CscMatrix power_grid(index_t n, index_t extra_edges,
                                   std::uint64_t seed);

/// Dense RHS vector b whose nonzero pattern is the pattern of column j of
/// `a_lower` mirrored symmetrically (the paper picks RHS sparsity "close
/// to the sparsity of the columns of a sparse matrix").
[[nodiscard]] std::vector<value_t> rhs_from_column(const CscMatrix& a_lower,
                                                   index_t j,
                                                   std::uint64_t seed);

/// Dense RHS with `nnz` random nonzero positions.
[[nodiscard]] std::vector<value_t> sparse_rhs(index_t n, index_t nnz,
                                              std::uint64_t seed);

/// Dense random RHS (all entries nonzero), used by Cholesky solve tests.
[[nodiscard]] std::vector<value_t> dense_rhs(index_t n, std::uint64_t seed);

}  // namespace sympiler::gen
