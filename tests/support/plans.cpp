#include "support/plans.h"

#include <span>
#include <utility>
#include <vector>

#include "graph/etree.h"

namespace sympiler::support {

namespace {

parallel::AggregateSchedule aggregate(const core::CholeskySets& sets,
                                      std::span<const index_t> parent,
                                      const parallel::LevelSchedule& levels,
                                      bool coarsen) {
  std::vector<index_t> dep_src(sets.updates.refs.size());
  for (std::size_t u = 0; u < dep_src.size(); ++u)
    dep_src[u] = sets.updates.refs[u].d;
  return parallel::coarsen_schedule_supernodes(
      sets.layout.sn, parent, sets.updates.ptr, dep_src, levels,
      parallel::CoarsenOptions{coarsen, coarsen});
}

}  // namespace

parallel::AggregateSchedule supernode_schedule(const core::CholeskyPlan& plan,
                                               const CscMatrix& a,
                                               bool coarsen) {
  SYMPILER_CHECK(plan.path != core::ExecutionPath::Simplicial,
                 "supernode_schedule: plan has no supernodes");
  const std::vector<index_t> parent = elimination_tree(a);
  return aggregate(
      plan.sets, parent,
      parallel::level_schedule_supernodes(plan.sets.layout.sn, parent),
      coarsen);
}

core::CholeskyPlan parallel_cholesky_plan(core::CholeskyPlan plan,
                                          const CscMatrix& a, bool coarsen) {
  SYMPILER_CHECK(plan.path == core::ExecutionPath::Supernodal,
                 "parallel_cholesky_plan: needs a sequential supernodal plan");
  const std::vector<index_t> parent = elimination_tree(a);
  const parallel::LevelSchedule levels =
      parallel::level_schedule_supernodes(plan.sets.layout.sn, parent);
  plan.agg = aggregate(plan.sets, parent, levels, coarsen);
  plan.solve_update_map = parallel::update_slots_supernodes(plan.sets.layout);
  plan.workspace.update_slots = plan.solve_update_map.slots();
  plan.path = core::ExecutionPath::ParallelSupernodal;
  core::PlanEvidence& ev = plan.evidence;
  ev.parallel_considered = true;
  ev.levels = levels.levels();
  ev.avg_level_width = levels.avg_level_width();
  ev.agg_levels = plan.agg.levels();
  ev.agg_tasks = plan.agg.tasks();
  ev.agg_bundles = plan.agg.bundles();
  ev.jit_eligible = false;
  return plan;
}

}  // namespace sympiler::support
