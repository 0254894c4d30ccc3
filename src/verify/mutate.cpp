// Corruption seeding for the verifier's mutation-kill matrix. Every
// branch simulates a specific bug class at the data-structure level the
// real component owns: a scheduler that mis-levels an item, a slot-map
// builder that aliases two producers, a Planner that trims a workspace
// field the executor still touches. See mutate.h for the taxonomy.
#include "verify/mutate.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace sympiler::verify {

namespace {

using core::ExecutionPath;

/// Swap the first items of the first and last aggregate levels. A task's
/// level is the flat level of its first item, and any item past flat
/// level 0 of a longest-path levelling has an incoming dependence, so
/// pulling it to level 0 always breaks an edge.
bool swap_agg_levels(parallel::AggregateSchedule& agg) {
  if (agg.levels() < 2 || agg.items.empty()) return false;
  const index_t q1 = agg.task_ptr[agg.level_ptr[0]];
  const index_t q2 = agg.task_ptr[agg.level_ptr[agg.levels() - 1]];
  if (q1 == q2) return false;
  std::swap(agg.items[q1], agg.items[q2]);
  return true;
}

/// Alias the second slot of the terms buffer onto the first: two
/// producers now write one cell — the cross-task race the map prevents.
bool alias_slots(parallel::UpdateSlotMap& m) {
  if (m.slot.size() < 2) return false;
  m.slot[1] = m.slot[0];
  return true;
}

/// Swap the slot ids of the first two producers feeding one row: both
/// still land inside the row's run (no alias), but the consumer's
/// ascending fold now applies them in the wrong serial order.
bool reorder_fold(parallel::UpdateSlotMap& m) {
  const index_t nrows = static_cast<index_t>(m.row_ptr.size()) - 1;
  for (index_t r = 0; r < nrows; ++r) {
    if (m.row_ptr[r + 1] - m.row_ptr[r] < 2) continue;
    index_t first = -1;
    for (std::size_t ci = 0; ci < m.slot.size(); ++ci) {
      if (m.slot[ci] < m.row_ptr[r] || m.slot[ci] >= m.row_ptr[r + 1])
        continue;
      if (first < 0) {
        first = static_cast<index_t>(ci);
      } else {
        std::swap(m.slot[first], m.slot[ci]);
        return true;
      }
    }
  }
  return false;
}

/// Flip a multi-item chain task into a bundle: its members occupy
/// consecutive levels precisely because they depend on each other, so the
/// "bundle" now runs dependent work lock-step.
bool flip_chain_to_bundle(parallel::AggregateSchedule& agg) {
  for (index_t t = 0; t < agg.tasks(); ++t) {
    if (agg.bundle[t] == 0 && agg.task_ptr[t + 1] - agg.task_ptr[t] >= 2) {
      agg.bundle[t] = 1;
      return true;
    }
  }
  return false;
}

/// Swap two adjacent members inside a multi-item chain task: the chain's
/// sequential execution now runs a consumer before the producer it was
/// fused with (the coarsener bug class races.chain-order diagnoses).
bool reorder_chain(parallel::AggregateSchedule& agg) {
  for (index_t t = 0; t < agg.tasks(); ++t) {
    if (agg.bundle[t] == 0 && agg.task_ptr[t + 1] - agg.task_ptr[t] >= 2) {
      std::swap(agg.items[agg.task_ptr[t]], agg.items[agg.task_ptr[t] + 1]);
      return true;
    }
  }
  return false;
}

/// Delete below-diagonal row u of supernode s's panel. Every offset stays
/// consistent: later panels' row and value offsets, and the row windows of
/// the supernode's own update refs.
void erase_panel_row(core::CholeskySets& sets, index_t s, index_t u) {
  solvers::SupernodalLayout& layout = sets.layout;
  const index_t w = layout.width(s);
  layout.srows.erase(layout.srows.begin() + layout.srow_ptr[s] + u);
  for (index_t t = s + 1; t <= layout.nsuper(); ++t) {
    --layout.srow_ptr[t];
    layout.panel_ptr[t] -= w;
  }
  for (solvers::UpdateRef& ref : sets.updates.refs) {
    if (ref.d != s) continue;
    if (ref.p1 > u) --ref.p1;
    if (ref.p2 > u) --ref.p2;
  }
}

/// Delete one explicit-zero row of an amalgamated panel: a below-diagonal
/// row that the supernode's first column lacks — the bug class of a
/// layout builder that takes a merged panel's rows from its first column.
/// The plan keeps no L pattern, so the first column's rows come from
/// symbolic_cholesky of the stored A pattern. The row reached L either
/// from an entry of A in the supernode's columns (the A-coverage check
/// sees it) or through a descendant's update (the containment check).
bool drop_panel_zero_row(core::CholeskySets& sets) {
  const solvers::SupernodalLayout& layout = sets.layout;
  const CscMatrix lp = sets.factor_pattern();
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const index_t c1 = layout.sn.start[s];
    const index_t base = layout.srow_ptr[s];
    index_t p = lp.col_begin(c1);
    for (index_t u = layout.width(s); u < layout.nrows(s); ++u) {
      const index_t r = layout.srows[base + u];
      while (p < lp.col_end(c1) && lp.rowind[p] < r) ++p;
      if (p < lp.col_end(c1) && lp.rowind[p] == r) continue;
      erase_panel_row(sets, s, u);
      return true;
    }
  }
  return false;
}

/// Delete a below-diagonal panel row that no stored entry of A in the
/// supernode's columns needs: the row reached the panel only through a
/// descendant's update, which still scatters it. Only the update
/// containment check can see that.
bool drop_update_row(core::CholeskySets& sets) {
  const solvers::SupernodalLayout& layout = sets.layout;
  const CscMatrix& ap = sets.a_pattern;
  std::vector<index_t> in_a(static_cast<std::size_t>(layout.n), -1);
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    for (index_t j = layout.sn.start[s]; j < layout.sn.start[s + 1]; ++j)
      for (index_t p = ap.col_begin(j); p < ap.col_end(j); ++p)
        in_a[ap.rowind[p]] = s;
    const index_t base = layout.srow_ptr[s];
    for (index_t u = layout.width(s); u < layout.nrows(s); ++u) {
      if (in_a[layout.srows[base + u]] == s) continue;
      erase_panel_row(sets, s, u);
      return true;
    }
  }
  return false;
}

/// Move one stored entry of A to a row its supernode's panel lacks (kept
/// sorted and inside the lower triangle, so the pattern itself stays well
/// formed): the scatter of A would write through a stale row map. Only
/// the A-coverage check can see it.
bool move_a_entry_off_panel(core::CholeskySets& sets) {
  const solvers::SupernodalLayout& layout = sets.layout;
  CscMatrix& ap = sets.a_pattern;
  const index_t n = layout.n;
  std::vector<index_t> stamp(static_cast<std::size_t>(n), -1);
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    for (index_t t = layout.srow_ptr[s]; t < layout.srow_ptr[s + 1]; ++t)
      stamp[layout.srows[t]] = s;
    for (index_t j = layout.sn.start[s]; j < layout.sn.start[s + 1]; ++j) {
      const index_t b = ap.col_begin(j);
      const index_t e = ap.col_end(j);
      if (e - b < 2) continue;  // keep a column's only entry
      for (index_t r = j + 1; r < n; ++r) {
        if (stamp[r] == s ||
            std::binary_search(ap.rowind.begin() + b, ap.rowind.begin() + e,
                               r))
          continue;
        ap.rowind[e - 1] = r;
        std::sort(ap.rowind.begin() + b, ap.rowind.begin() + e);
        return true;
      }
    }
  }
  return false;
}

/// Plant the other path's pattern: beside a simplicial plan's L, a small
/// well-formed A pattern (the diagonal of the leading half) with dims.n
/// trimmed to its order; beside a supernodal plan's A, L's pattern — a
/// plan builder or a plan file that keeps both. A simplicial plan checked
/// against the stray order would overflow its dense column when it runs.
bool plant_stray_pattern(core::CholeskyPlan& plan) {
  core::CholeskySets& sets = plan.sets;
  if (plan.path != ExecutionPath::Simplicial) {
    sets.sym.l_pattern = sets.factor_pattern();
    return true;
  }
  const index_t m = sets.n() / 2;
  if (m == 0) return false;
  CscMatrix stray(m, m);
  for (index_t j = 0; j < m; ++j) {
    stray.rowind.push_back(j);
    stray.colptr[j + 1] = j + 1;
  }
  sets.a_pattern = std::move(stray);
  plan.workspace.n = m;
  return true;
}

/// Delete the first update ref of the first target that has one, with
/// every later offset kept consistent: each remaining ref is still well
/// formed, but the factor would skip that descendant's update.
bool drop_update_ref(solvers::UpdateLists& updates) {
  if (updates.refs.empty()) return false;
  std::size_t s = 0;
  while (updates.ptr[s + 1] == updates.ptr[s]) ++s;
  updates.refs.erase(updates.refs.begin() + updates.ptr[s]);
  for (std::size_t t = s + 1; t < updates.ptr.size(); ++t) --updates.ptr[t];
  return true;
}

/// Drop the last scheduled item: the schedule still looks well-formed but
/// silently loses work.
bool drop_schedule_item(parallel::AggregateSchedule& agg) {
  if (agg.items.empty()) return false;
  agg.items.pop_back();
  agg.task_ptr.back() -= 1;
  return true;
}

/// Clear a schedule or slot map a parallel plan executes; false when the
/// plan carries none (sequential paths).
template <typename T>
bool drop(T& product) {
  if (product.empty()) return false;
  product = T{};
  return true;
}

}  // namespace

const char* to_string(Corruption c) {
  switch (c) {
    case Corruption::kDepViolation:
      return "dep-violation";
    case Corruption::kAliasedSlot:
      return "aliased-slot";
    case Corruption::kReorderedFold:
      return "reordered-fold";
    case Corruption::kCrossDependentBundle:
      return "cross-dependent-bundle";
    case Corruption::kOutOfBoundsIndex:
      return "out-of-bounds-index";
    case Corruption::kWorkspaceTrim:
      return "workspace-trim";
    case Corruption::kScheduleGap:
      return "schedule-gap";
    case Corruption::kChainReorder:
      return "chain-reorder";
    case Corruption::kDroppedPanelZeroRow:
      return "dropped-panel-zero-row";
    case Corruption::kDroppedSchedule:
      return "dropped-schedule";
    case Corruption::kDroppedSlotMap:
      return "dropped-slot-map";
    case Corruption::kAEntryOutsidePanel:
      return "a-entry-outside-panel";
    case Corruption::kUpdateRowOutsideTarget:
      return "update-row-outside-target";
    case Corruption::kStrayPattern:
      return "stray-pattern";
    case Corruption::kDroppedUpdateRef:
      return "dropped-update-ref";
  }
  return "?";
}

// ---------------------------------------------------------------- Cholesky

bool PlanMutator::apply(core::CholeskyPlan& plan, Corruption c) {
  auto& sets = plan.sets;
  const index_t n = sets.n();
  const bool has_layout = sets.layout.n != 0;

  switch (c) {
    case Corruption::kDepViolation: {
      if (swap_agg_levels(plan.agg)) return true;
      if (!sets.rowpat.empty()) {
        // Sequential simplicial: claim row i is updated by itself — a
        // dependence no elimination order can satisfy.
        for (index_t i = 0; i < n; ++i) {
          if (sets.rowpat_ptr[i + 1] > sets.rowpat_ptr[i]) {
            sets.rowpat[sets.rowpat_ptr[i]] = i;
            return true;
          }
        }
      }
      if (has_layout && !sets.updates.refs.empty()) {
        // Sequential supernodal: make a target its own descendant.
        for (index_t s = 0; s < sets.layout.nsuper(); ++s) {
          if (sets.updates.ptr[s + 1] > sets.updates.ptr[s]) {
            sets.updates.refs[sets.updates.ptr[s]].d = s;
            return true;
          }
        }
      }
      return false;
    }
    case Corruption::kAliasedSlot: {
      if (alias_slots(plan.solve_update_map)) return true;
      if (!sets.rowpat.empty()) {
        // Duplicate one updating column in a row pattern: the same
        // contribution would be subtracted twice.
        for (index_t i = 0; i < n; ++i) {
          if (sets.rowpat_ptr[i + 1] - sets.rowpat_ptr[i] >= 2) {
            sets.rowpat[sets.rowpat_ptr[i] + 1] =
                sets.rowpat[sets.rowpat_ptr[i]];
            return true;
          }
        }
      }
      if (has_layout) {
        // Duplicate a descendant ref in a target's update list.
        for (index_t s = 0; s < sets.layout.nsuper(); ++s) {
          if (sets.updates.ptr[s + 1] - sets.updates.ptr[s] >= 2) {
            sets.updates.refs[sets.updates.ptr[s] + 1] =
                sets.updates.refs[sets.updates.ptr[s]];
            return true;
          }
        }
      }
      return false;
    }
    case Corruption::kReorderedFold:
      return reorder_fold(plan.solve_update_map);
    case Corruption::kCrossDependentBundle:
      return !plan.agg.empty() && flip_chain_to_bundle(plan.agg);
    case Corruption::kOutOfBoundsIndex: {
      if (has_layout && !sets.layout.srows.empty()) {
        sets.layout.srows.back() = n + 5;
        return true;
      }
      if (!sets.rowpat.empty()) {
        sets.rowpat[0] = n + 7;
        return true;
      }
      if (!sets.sym.l_pattern.rowind.empty()) {
        sets.sym.l_pattern.rowind.back() = n + 3;
        return true;
      }
      return false;
    }
    case Corruption::kWorkspaceTrim: {
      if (plan.path == ExecutionPath::ParallelSupernodal &&
          !plan.solve_update_map.empty()) {
        plan.workspace.update_slots = plan.solve_update_map.slots() - 1;
        return true;
      }
      if (plan.path != ExecutionPath::Simplicial && has_layout) {
        plan.workspace.max_panel_rows = 0;
        return true;
      }
      if (plan.path == ExecutionPath::Simplicial) {
        plan.workspace.need_dense = false;
        return true;
      }
      return false;
    }
    case Corruption::kScheduleGap:
      return drop_schedule_item(plan.agg);
    case Corruption::kChainReorder:
      return !plan.agg.empty() && reorder_chain(plan.agg);
    case Corruption::kDroppedPanelZeroRow:
      return has_layout && drop_panel_zero_row(sets);
    case Corruption::kDroppedSchedule:
      return drop(plan.agg);
    case Corruption::kDroppedSlotMap:
      return drop(plan.solve_update_map);
    case Corruption::kAEntryOutsidePanel:
      return has_layout && move_a_entry_off_panel(sets);
    case Corruption::kUpdateRowOutsideTarget:
      return has_layout && drop_update_row(sets);
    case Corruption::kStrayPattern:
      return plant_stray_pattern(plan);
    case Corruption::kDroppedUpdateRef:
      return has_layout && drop_update_ref(sets.updates);
  }
  return false;
}

// ---------------------------------------------------------------- TriSolve

bool PlanMutator::apply(core::TriSolvePlan& plan, const CscMatrix& l,
                        Corruption c) {
  auto& sets = plan.sets;
  const index_t n = l.cols();

  switch (c) {
    case Corruption::kDepViolation: {
      if (swap_agg_levels(plan.agg)) return true;
      if (!sets.reach.empty()) {
        // Sequential pruned: place a successor before its producer in the
        // reach sequence — find any DG_L edge inside the reach and invert
        // its order.
        std::vector<index_t> pos(static_cast<std::size_t>(n), -1);
        for (index_t k = 0; k < static_cast<index_t>(sets.reach.size()); ++k)
          if (sets.reach[k] >= 0 && sets.reach[k] < n) pos[sets.reach[k]] = k;
        for (index_t k = 0; k < static_cast<index_t>(sets.reach.size()); ++k) {
          const index_t j = sets.reach[k];
          if (j < 0 || j >= n) continue;
          for (index_t p = l.col_begin(j); p < l.col_end(j); ++p) {
            const index_t i = l.rowind[p];
            if (i > j && i < n && pos[i] > k) {
              std::swap(sets.reach[k], sets.reach[pos[i]]);
              return true;
            }
          }
        }
      }
      if (sets.sn_reach.size() >= 2) {
        // Blocked pruned: break the ascending (dependence) order of the
        // supernode prune-set.
        std::swap(sets.sn_reach[0], sets.sn_reach[1]);
        std::swap(sets.sn_first_col[0], sets.sn_first_col[1]);
        return true;
      }
      return false;
    }
    case Corruption::kAliasedSlot: {
      if (alias_slots(plan.update_map)) return true;
      if (sets.reach.size() >= 2) {
        sets.reach[1] = sets.reach[0];
        return true;
      }
      if (sets.sn_reach.size() >= 2) {
        sets.sn_reach[1] = sets.sn_reach[0];
        return true;
      }
      return false;
    }
    case Corruption::kReorderedFold:
      return reorder_fold(plan.update_map);
    case Corruption::kCrossDependentBundle:
      return !plan.agg.empty() && flip_chain_to_bundle(plan.agg);
    case Corruption::kOutOfBoundsIndex: {
      if (!sets.reach.empty()) {
        sets.reach[0] = n + 9;
        return true;
      }
      if (!sets.sn_reach.empty()) {
        sets.sn_reach[0] = sets.blocks.count() + 3;
        return true;
      }
      return false;
    }
    case Corruption::kWorkspaceTrim: {
      if (plan.path == ExecutionPath::ParallelTriSolve &&
          !plan.update_map.empty()) {
        plan.workspace.update_slots = plan.update_map.slots() - 1;
        return true;
      }
      if (plan.path == ExecutionPath::BlockedTriSolve) {
        plan.workspace.max_tail = -1;
        return true;
      }
      return false;
    }
    case Corruption::kScheduleGap: {
      if (drop_schedule_item(plan.agg)) return true;
      if (plan.path == ExecutionPath::BlockedTriSolve &&
          plan.options.vi_prune && !sets.sn_reach.empty()) {
        sets.sn_reach.pop_back();
        sets.sn_first_col.pop_back();
        return true;
      }
      if (!sets.reach.empty()) {
        sets.reach.pop_back();
        return true;
      }
      return false;
    }
    case Corruption::kChainReorder:
      return !plan.agg.empty() && reorder_chain(plan.agg);
    case Corruption::kDroppedPanelZeroRow:
    case Corruption::kAEntryOutsidePanel:
    case Corruption::kUpdateRowOutsideTarget:
    case Corruption::kStrayPattern:
    case Corruption::kDroppedUpdateRef:
      return false;  // trisolve plans carry no panels, A pattern or updates
    case Corruption::kDroppedSchedule:
      return drop(plan.agg);
    case Corruption::kDroppedSlotMap:
      return drop(plan.update_map);
  }
  return false;
}

}  // namespace sympiler::verify
