// kRaces pass: symbolic happens-before replay of the level-set
// interpreters over the UpdateSlotMap.
//
// The executors' determinism contract (parallel/levelset.h) rides on four
// properties of the slot map, all statically decidable:
//  * every compact source position maps into the slot run of the row it
//    updates (a producer can never scribble on another row's terms);
//  * each slot is written exactly once per sweep (write-once — two
//    producers sharing a slot is the data race the map exists to prevent);
//  * within each row, slots enumerate the producers in the serial
//    executor's application order, so the consumer's ascending fold
//    replays the serial subtraction sequence bit for bit;
//  * every producer's barrier level strictly precedes its consumer's
//    (happens-before: no slot is read before the level that publishes it).
//
// The first three fall out of one cursor simulation: walk the producers in
// serial order, and each emitted slot id must equal the target row's next
// cursor position. The fourth replays the schedule coordinates over the
// same producer/consumer pairs.
#include <vector>

#include "verify/internal.h"

namespace sympiler::verify::detail {

namespace {

/// Schedule coordinates for the happens-before replay, validated into a
/// scratch report: a structurally broken schedule is the dependence pass's
/// finding, not a second copy here — the replay simply skips.
ItemOrder quiet_agg(const parallel::AggregateSchedule& agg, index_t count) {
  Report scratch;
  Checker sc(scratch, Pass::kRaces);
  return check_agg_schedule(sc, agg, count);
}

}  // namespace

// ---------------------------------------------------------------- Cholesky

void check_races(Report& report, const core::CholeskyPlan& plan) {
  Checker c(report, Pass::kRaces);
  // Sequential plans share no terms buffer; a parallel one must carry the
  // slot map its sweeps scatter into (an empty map fails the shape check).
  if (plan.path != core::ExecutionPath::ParallelSupernodal) return;
  const parallel::UpdateSlotMap& m = plan.solve_update_map;

  const solvers::SupernodalLayout& layout = plan.sets.layout;
  c.note();
  if (layout.n == 0 ||
      static_cast<index_t>(layout.srow_ptr.size()) != layout.nsuper() + 1 ||
      static_cast<index_t>(layout.srows.size()) != layout.srow_ptr.back()) {
    c.fail("races.missing-layout", -1,
           "slot map present but layout is absent or inconsistent");
    return;
  }
  const index_t n = layout.n;
  const index_t nsuper = layout.nsuper();
  // One term per below-diagonal panel row: total panel rows minus the n
  // own-column rows.
  const index_t expected = layout.srow_ptr.back() - n;
  if (static_cast<index_t>(m.row_ptr.size()) != n + 1 ||
      m.row_ptr.front() != 0 || m.row_ptr.back() != expected ||
      static_cast<index_t>(m.slot.size()) != expected || expected < 0) {
    c.fail("races.map-shape", -1,
           cat("slot map must hold exactly one slot per below-diagonal ",
               "panel row (", expected, ")"));
    return;
  }
  for (index_t r = 0; r < n; ++r) {
    if (m.row_ptr[r + 1] < m.row_ptr[r]) {
      c.fail("races.map-shape", r, "row_ptr decreases");
      return;
    }
  }

  // Cursor simulation over the serial producer order (ascending supernode,
  // the fold order the parallel batch solve replays).
  c.note();
  std::vector<index_t> cursor(m.row_ptr.begin(), m.row_ptr.end() - 1);
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(expected), 0);
  for (index_t s = 0; s < nsuper; ++s) {
    const index_t base = layout.srow_ptr[s];
    const index_t w = layout.width(s);
    const index_t rows = layout.nrows(s);
    for (index_t u = w; u < rows; ++u) {
      const index_t r = layout.srows[base + u];
      if (r < 0 || r >= n) return;  // structure pass reports this
      const index_t ci = base + u - layout.sn.start[s] - w;
      if (ci < 0 || ci >= expected) {
        c.fail("races.map-shape", s,
               cat("compact index ", ci, " of supernode ", s,
                   " outside the slot array"));
        return;
      }
      const index_t sid = m.slot[ci];
      if (sid < m.row_ptr[r] || sid >= m.row_ptr[r + 1]) {
        c.fail("races.slot-row", r,
               cat("supernode ", s, "'s term for row ", r, " lands in slot ",
                   sid, ", outside the row's run [", m.row_ptr[r], ", ",
                   m.row_ptr[r + 1], ")"));
        return;
      }
      if (seen[sid]) {
        c.fail("races.write-once", r,
               cat("slot ", sid, " written twice — two producers share a ",
                   "term (cross-task data race)"));
        return;
      }
      seen[sid] = 1;
      if (sid != cursor[r]) {
        c.fail("races.fold-order", r,
               cat("supernode ", s, " folds into row ", r, " at slot ", sid,
                   ", serial order expects ", cursor[r],
                   " — parallel fold would diverge from the serial ",
                   "subtraction sequence"));
        return;
      }
      ++cursor[r];
    }
  }
  c.note();
  for (index_t r = 0; r < n; ++r) {
    if (cursor[r] != m.row_ptr[r + 1]) {
      c.fail("races.coverage", r,
             cat("row ", r, " folds ", m.row_ptr[r + 1] - cursor[r],
                 " slots no producer ever writes"));
      return;
    }
  }

  // Happens-before: the supernode owning row r reads r's slots when it
  // factors, so every producer must sit at a strictly earlier barrier (or
  // earlier in the same sequential chain).
  const auto check_hb = [&](const ItemOrder& order) {
    if (!order.usable) return;
    c.note();
    for (index_t s = 0; s < nsuper; ++s) {
      const index_t base = layout.srow_ptr[s];
      const index_t w = layout.width(s);
      const index_t rows = layout.nrows(s);
      for (index_t u = w; u < rows; ++u) {
        const index_t r = layout.srows[base + u];
        if (r < 0 || r >= n) return;
        const index_t owner = layout.sn.col_to_super[r];
        if (owner < 0 || owner >= nsuper || owner == s) continue;
        if (!order.before(s, owner)) {
          c.fail("races.read-before-publish-agg", r,
                 cat("row ", r, "'s slot is written by supernode ", s,
                     " (level ", order.level[s], ") but read by supernode ",
                     owner, " (level ", order.level[owner],
                     ") with no barrier between them"));
          return;
        }
      }
    }
  };
  // Intra-chain sequencing (ROADMAP verify follow-up 4): a producer and
  // its consumer may legally share one aggregate *chain* task — the chain
  // runs its members sequentially, so the dependence is honored by member
  // order instead of a barrier. Check that sequencing as its own family:
  // same-task pairs must sit in an unbundled task with the producer at a
  // strictly earlier member position. The generic happens-before check
  // subsumes the pass/fail, but this one names the chain task and member
  // positions — the coarsener bug class (PR 7) the flattened diagnosis
  // used to hide.
  const auto check_chain_order = [&](const ItemOrder& order) {
    if (!order.usable) return;
    c.note();
    for (index_t s = 0; s < nsuper; ++s) {
      const index_t base = layout.srow_ptr[s];
      const index_t w = layout.width(s);
      const index_t rows = layout.nrows(s);
      for (index_t u = w; u < rows; ++u) {
        const index_t r = layout.srows[base + u];
        if (r < 0 || r >= n) return;
        const index_t owner = layout.sn.col_to_super[r];
        if (owner < 0 || owner >= nsuper || owner == s) continue;
        if (order.task[s] != order.task[owner]) continue;
        if (order.bundled[s] != 0) {
          c.fail("races.chain-order", r,
                 cat("supernode ", s, " and its consumer ", owner,
                     " share lock-step bundle task ", order.task[s],
                     " — bundle lanes cannot sequence a dependence"));
          return;
        }
        if (order.pos[s] >= order.pos[owner]) {
          c.fail("races.chain-order", r,
                 cat("chain task ", order.task[s], " runs consumer supernode ",
                     owner, " (member ", order.pos[owner],
                     ") before its producer ", s, " (member ", order.pos[s],
                     ")"));
          return;
        }
      }
    }
  };
  const ItemOrder agg_order = quiet_agg(plan.agg, nsuper);
  check_hb(agg_order);
  check_chain_order(agg_order);
}

// ---------------------------------------------------------------- TriSolve

void check_races(Report& report, const core::TriSolvePlan& plan,
                 const CscMatrix& l) {
  Checker c(report, Pass::kRaces);
  if (plan.path != core::ExecutionPath::ParallelTriSolve) return;
  const parallel::UpdateSlotMap& m = plan.update_map;

  const index_t n = l.cols();
  c.note();
  // One slot per strictly-lower nonzero of L (each column stores one
  // diagonal).
  const index_t expected = l.nnz() - n;
  if (static_cast<index_t>(m.row_ptr.size()) != n + 1 ||
      m.row_ptr.front() != 0 || m.row_ptr.back() != expected ||
      static_cast<index_t>(m.slot.size()) != expected || expected < 0) {
    c.fail("races.map-shape", -1,
           cat("slot map must hold exactly one slot per strictly-lower ",
               "nonzero (", expected, ")"));
    return;
  }
  for (index_t r = 0; r < n; ++r) {
    if (m.row_ptr[r + 1] < m.row_ptr[r]) {
      c.fail("races.map-shape", r, "row_ptr decreases");
      return;
    }
  }

  // Serial column order the parallel fold must replay: the plan's reach
  // sequence when it covers every column, ascending order otherwise
  // (update_slots_columns' `order` contract).
  std::vector<index_t> order;
  if (static_cast<index_t>(plan.sets.reach.size()) == n) {
    order = plan.sets.reach;
    std::vector<std::uint8_t> used(static_cast<std::size_t>(n), 0);
    for (const index_t j : order) {
      if (j < 0 || j >= n || used[j]) return;  // structure pass reports this
      used[j] = 1;
    }
  } else {
    order.resize(static_cast<std::size_t>(n));
    for (index_t j = 0; j < n; ++j) order[j] = j;
  }

  c.note();
  std::vector<index_t> cursor(m.row_ptr.begin(), m.row_ptr.end() - 1);
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(expected), 0);
  for (const index_t j : order) {
    for (index_t p = l.col_begin(j); p < l.col_end(j); ++p) {
      const index_t i = l.rowind[p];
      if (i <= j || i >= n) continue;
      const index_t ci = p - j - 1;
      if (ci < 0 || ci >= expected) {
        c.fail("races.map-shape", j,
               cat("compact index ", ci, " of column ", j,
                   " outside the slot array"));
        return;
      }
      const index_t sid = m.slot[ci];
      if (sid < m.row_ptr[i] || sid >= m.row_ptr[i + 1]) {
        c.fail("races.slot-row", i,
               cat("column ", j, "'s update of row ", i, " lands in slot ",
                   sid, ", outside the row's run [", m.row_ptr[i], ", ",
                   m.row_ptr[i + 1], ")"));
        return;
      }
      if (seen[sid]) {
        c.fail("races.write-once", i,
               cat("slot ", sid, " written twice — two producers share a ",
                   "term (cross-task data race)"));
        return;
      }
      seen[sid] = 1;
      if (sid != cursor[i]) {
        c.fail("races.fold-order", i,
               cat("column ", j, " folds into row ", i, " at slot ", sid,
                   ", serial order expects ", cursor[i],
                   " — parallel fold would diverge from the serial ",
                   "subtraction sequence"));
        return;
      }
      ++cursor[i];
    }
  }
  c.note();
  for (index_t r = 0; r < n; ++r) {
    if (cursor[r] != m.row_ptr[r + 1]) {
      c.fail("races.coverage", r,
             cat("row ", r, " folds ", m.row_ptr[r + 1] - cursor[r],
                 " slots no producer ever writes"));
      return;
    }
  }

  // Happens-before: row i folds its incoming terms when its own level
  // solves it, so every producer column must complete strictly earlier.
  const auto check_hb = [&](const ItemOrder& ord) {
    if (!ord.usable) return;
    c.note();
    for (index_t j = 0; j < n; ++j) {
      for (index_t p = l.col_begin(j); p < l.col_end(j); ++p) {
        const index_t i = l.rowind[p];
        if (i <= j || i >= n) continue;
        if (!ord.before(j, i)) {
          c.fail("races.read-before-publish-agg", i,
                 cat("row ", i, "'s slot is written by column ", j,
                     " (level ", ord.level[j], ") but folded at level ",
                     ord.level[i], " with no barrier between them"));
          return;
        }
      }
    }
  };
  // Intra-chain sequencing over DG_L (see the Cholesky counterpart):
  // producer column j and consumer row i sharing one chain task must be
  // sequenced by member position; a shared bundle can never sequence them.
  const auto check_chain_order = [&](const ItemOrder& ord) {
    if (!ord.usable) return;
    c.note();
    for (index_t j = 0; j < n; ++j) {
      for (index_t p = l.col_begin(j); p < l.col_end(j); ++p) {
        const index_t i = l.rowind[p];
        if (i <= j || i >= n) continue;
        if (ord.task[j] != ord.task[i]) continue;
        if (ord.bundled[j] != 0) {
          c.fail("races.chain-order", i,
                 cat("column ", j, " and its consumer row ", i,
                     " share lock-step bundle task ", ord.task[j],
                     " — bundle lanes cannot sequence a dependence"));
          return;
        }
        if (ord.pos[j] >= ord.pos[i]) {
          c.fail("races.chain-order", i,
                 cat("chain task ", ord.task[j], " runs consumer row ", i,
                     " (member ", ord.pos[i], ") before its producer column ",
                     j, " (member ", ord.pos[j], ")"));
          return;
        }
      }
    }
  };
  const ItemOrder agg_order = quiet_agg(plan.agg, n);
  check_hb(agg_order);
  check_chain_order(agg_order);
}

}  // namespace sympiler::verify::detail
