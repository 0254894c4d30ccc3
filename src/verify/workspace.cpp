// kWorkspace pass: the plan's WorkspaceDims must cover the maximum
// extents the executors will index — the static form of the
// Workspace::Borrow guard. The Planner trims every field its chosen path
// never touches (workspace.h), so the checks here are one-sided: each
// buffer the path *does* read must be at least as large as the deepest
// index the plan's own sets imply. A Planner trim bug fails here, at plan
// time, instead of as a runtime overrun inside a numeric sweep.
#include <algorithm>

#include "verify/internal.h"

namespace sympiler::verify::detail {

void check_workspace(Report& report, const core::CholeskyPlan& plan) {
  Checker c(report, Pass::kWorkspace);
  const core::WorkspaceDims& d = plan.workspace;
  const index_t n = plan.sets.n();

  c.note();
  if (d.n < n) {
    c.fail("workspace.n", -1,
           cat("dims.n = ", d.n, " < problem order ", n));
    return;
  }

  if (plan.path == core::ExecutionPath::Simplicial) {
    // The simplicial sweep scatters into the dense accumulation column and
    // chases per-column cursors through the integer map.
    c.note();
    if (!d.need_dense || !d.need_map)
      c.fail("workspace.simplicial-buffers", -1,
             "simplicial path trimmed the dense column or the cursor map");
    return;
  }

  const solvers::SupernodalLayout& layout = plan.sets.layout;
  if (layout.n == 0 ||
      static_cast<index_t>(layout.srow_ptr.size()) != layout.nsuper() + 1)
    return;  // structure pass reports the missing layout

  c.note();
  index_t max_rows = 0, max_width = 0, max_tail = 0;
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t rows = layout.srow_ptr[s + 1] - layout.srow_ptr[s];
    const index_t w = layout.width(s);
    max_rows = std::max(max_rows, rows);
    max_width = std::max(max_width, w);
    max_tail = std::max(max_tail, rows - w);
  }
  if (!d.need_map)
    c.fail("workspace.map", -1,
           "supernodal path trimmed the scatter map it gathers through");
  else if (d.max_panel_rows < max_rows || d.max_panel_width < max_width)
    c.fail("workspace.update-tile", -1,
           cat("update tile ", d.max_panel_rows, "x", d.max_panel_width,
               " smaller than the largest panel ", max_rows, "x", max_width));
  else if (d.max_tail < max_tail)
    c.fail("workspace.tail", -1,
           cat("tail scratch ", d.max_tail, " < deepest below-diagonal ",
               "panel ", max_tail));
  else if (d.rhs_block < 1)
    c.fail("workspace.rhs-block", -1,
           "supernodal panel solves need at least one packed RHS lane");

  if (plan.path == core::ExecutionPath::ParallelSupernodal) {
    c.note();
    if (d.update_slots < plan.solve_update_map.slots())
      c.fail("workspace.update-slots", -1,
             cat("terms buffer holds ", d.update_slots, " slots, the plan's ",
                 "slot map assigns ", plan.solve_update_map.slots()));
  }
}

void check_workspace(Report& report, const core::TriSolvePlan& plan,
                     const CscMatrix& l) {
  Checker c(report, Pass::kWorkspace);
  const core::WorkspaceDims& d = plan.workspace;
  const auto& sets = plan.sets;

  if (plan.path == core::ExecutionPath::BlockedTriSolve &&
      !sets.blocks.start.empty() &&
      static_cast<index_t>(sets.colcount.size()) == l.cols()) {
    // Deepest tail the blocked sweep gathers, over the blocks it actually
    // visits (the supernode prune-set when VI-Prune restricts the sweep).
    c.note();
    index_t required = 0;
    const bool pruned = plan.options.vi_prune && !sets.sn_reach.empty();
    const index_t count =
        pruned ? static_cast<index_t>(sets.sn_reach.size())
               : sets.blocks.count();
    for (index_t k = 0; k < count; ++k) {
      const index_t s = pruned ? sets.sn_reach[k] : k;
      if (s < 0 || s + 1 >= static_cast<index_t>(sets.blocks.start.size()))
        continue;  // structure pass reports this
      const index_t c1 = sets.blocks.start[s];
      const index_t w = sets.blocks.start[s + 1] - c1;
      if (c1 >= 0 && c1 < static_cast<index_t>(sets.colcount.size()))
        required = std::max(required, sets.colcount[c1] - w);
    }
    if (d.max_tail < required)
      c.fail("workspace.tail", -1,
             cat("tail scratch ", d.max_tail, " < deepest block tail ",
                 required));
    else if (d.rhs_block < 1)
      c.fail("workspace.rhs-block", -1,
             "blocked batch solves need at least one packed RHS lane");
  }

  if (plan.path == core::ExecutionPath::ParallelTriSolve) {
    c.note();
    if (d.update_slots < plan.update_map.slots())
      c.fail("workspace.update-slots", -1,
             cat("terms buffer holds ", d.update_slots, " slots, the plan's ",
                 "slot map assigns ", plan.update_map.slots()));
    else if (d.n < l.cols())
      c.fail("workspace.n", -1,
             cat("dims.n = ", d.n, " < problem order ", l.cols(),
                 " (packed RHS block rows)"));
    else if (d.rhs_block < 1)
      c.fail("workspace.rhs-block", -1,
             "level-set batch solves need at least one packed RHS lane");
  }
}

}  // namespace sympiler::verify::detail
