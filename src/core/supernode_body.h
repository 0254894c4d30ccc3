// The supernode body of the left-looking supernodal Cholesky, shared by
// the sequential interpreter (CholeskyExecutor) and the level-set parallel
// one (parallel::parallel_cholesky), so both apply one operation sequence
// to every panel entry and agree bit for bit.
//
// The body comes in three pieces so a thread team can share one supernode:
// columns (scatter A, then the static updates) split by target column,
// the diagonal block on one thread, and the below-diagonal rows split by
// row. Each panel entry belongs to exactly one column and one row, and its
// operations never depend on the split, so any split — including one
// thread over everything (factor_supernode) — gives the same bits.
#pragma once

#include "core/inspector.h"
#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::core {

/// Assemble local columns [j0, j1) of supernode s's panel: scatter A's
/// columns into them, then apply every static update that targets them,
/// in update-list order. `map` is n-sized scratch that this call fills
/// with s's row map; `work` holds one update tile (max panel rows x max
/// panel width). Every update is one trapezoid tile followed by its
/// scatter.
void assemble_supernode_columns(const CholeskySets& sets,
                                const CscMatrix& a_lower, index_t s,
                                index_t j0, index_t j1, value_t* panels,
                                index_t* map, value_t* work);

/// Factor supernode s's assembled diagonal block in place
/// (blas::potrf_lower). The kPivot fault point fires here, once per
/// supernode; a non-positive pivot throws numerical_error anchored at the
/// supernode's first column with the panel's first entry as its value.
void factor_supernode_diagonal(const solvers::SupernodalLayout& layout,
                               index_t s, value_t* panels);

/// Rows [r0, r1) of supernode s's below-diagonal block (row 0 is the first
/// row under the diagonal block): B := B * L^{-T} against the factored
/// diagonal block.
void solve_supernode_rows(const solvers::SupernodalLayout& layout, index_t s,
                          index_t r0, index_t r1, value_t* panels);

/// The whole body on one thread: every column, then the whole panel in
/// one blas::potrf_panel call (diagonal block and below-diagonal rows; the
/// same kPivot fault point and pivot anchoring as
/// factor_supernode_diagonal).
void factor_supernode(const CholeskySets& sets, const CscMatrix& a_lower,
                      index_t s, value_t* panels, index_t* map, value_t* work);

}  // namespace sympiler::core
