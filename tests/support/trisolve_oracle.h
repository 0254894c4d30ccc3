// Test oracle for the blocked triangular solve (core/trisolve_executor.h).
//
// The two-pass form of the VS-Block traversal: per block, the diagonal
// parts of all reached columns first, then a second pass over the same
// columns for their tail contributions. The executor's one-pass sweep and
// the plan-compiled kernel apply every term in this order, so they must
// match it bit for bit; no library code calls it.
#pragma once

#include <span>

#include "core/execution_plan.h"
#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::support {

/// Forward solve L x = b in place over a BlockedTriSolve plan of `l`,
/// in the two-pass order (x holds b on entry, the solution on exit).
void blocked_trisolve_two_pass(const core::TriSolvePlan& plan,
                               const CscMatrix& l, std::span<value_t> x);

}  // namespace sympiler::support
