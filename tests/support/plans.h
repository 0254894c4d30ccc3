// Plan builders the tests share.
//
// The Planner builds a parallel Cholesky plan only in OpenMP builds and
// only when its gates clear. The tests that need one in every build start
// from a gated sequential supernodal plan and add what the Planner adds on
// the parallel path, using the same pure schedule builders.
#pragma once

#include "core/execution_plan.h"
#include "parallel/schedule.h"
#include "sparse/csc.h"

namespace sympiler::support {

/// Aggregate supernode schedule of a supernodal plan of `a`:
/// chain-coarsened, or the identity aggregate (one task per supernode at
/// its flat level). The schedule builders read the etree, which plans do
/// not carry, so it is recomputed from `a`.
[[nodiscard]] parallel::AggregateSchedule supernode_schedule(
    const core::CholeskyPlan& plan, const CscMatrix& a, bool coarsen);

/// The ParallelSupernodal variant of a sequential supernodal plan of `a`:
/// the plan plus its aggregate schedule (see supernode_schedule), the
/// forward-solve slot map, the workspace's slot count and the schedule
/// evidence, as Planner::plan_cholesky fills them when its parallel gates
/// clear.
[[nodiscard]] core::CholeskyPlan parallel_cholesky_plan(
    core::CholeskyPlan plan, const CscMatrix& a, bool coarsen);

}  // namespace sympiler::support
