// Schedule coarsening: rewrite a flat level schedule into the aggregate
// chain/bundle schedule (parallel/schedule.h) by mining the actual
// dependence DAG, in the spirit of dependency-driven trace analysis
// (Cetinic et al., PAPERS.md).
//
// Chain rule. A run is a sequence of items, one per consecutive flat
// level. Item i at flat level l extends the run R = [m_s .. m_{l-1}]
// (started at flat level s) iff every dependence of i is either a member
// of R or lives at a flat level < s. Placing R at aggregate level s keeps
// the barrier-per-level execution model valid:
//   - a dependence j of member i that is not in R has lev(j) < s, so j's
//     own run started at s_j <= lev(j) < s — strictly earlier aggregate
//     level;
//   - consequently two tasks at the same aggregate level can never depend
//     on each other, and a backward sweep stays valid when both the level
//     order and the item order inside each task are reversed (a forward
//     dependent w of member z is either later in the same run, or its run
//     starts past lev(z) and so sits at a strictly later aggregate
//     level).
// Determinism is untouched: the UpdateSlotMap fixes every row's fold
// order independently of the execution schedule, and a run executes its
// members in the exact flat-level order on one thread.
//
// Bundle rule. Within an aggregate level, singleton tasks are mutually
// independent; those with identical sparsity shape (incoming-term count,
// update count) are grouped into lock-step bundles of kBundleMax lanes
// (kBundleMin at the tail) for the SIMD bundle kernels (blas/bundle.h).
// Per lane the kernels replay the scalar operation sequence exactly, so
// lane parallelism changes data movement only, never any element's bits.
#include <algorithm>
#include <cstdint>
#include <numeric>

#include "graph/etree.h"
#include "graph/supernodes.h"
#include "parallel/schedule.h"

namespace sympiler::parallel {

namespace {

/// Flat level of every item, recovered from the schedule buckets.
std::vector<index_t> item_levels(const LevelSchedule& flat) {
  std::vector<index_t> lev(flat.items.size(), 0);
  for (index_t l = 0; l < flat.levels(); ++l)
    for (index_t t = flat.level_ptr[l]; t < flat.level_ptr[l + 1]; ++t)
      lev[flat.items[t]] = l;
  return lev;
}

/// Core coarsener over an explicit in-edge list. `rank` is a permutation
/// rank ordering tasks (and bundle lanes) within each aggregate level;
/// `shape` keys lock-step compatibility (shape < 0 exempts an item from
/// bundling — the supernodal caller exempts everything).
AggregateSchedule coarsen(const LevelSchedule& flat,
                          std::span<const index_t> dep_ptr,
                          std::span<const index_t> dep_src,
                          std::span<const index_t> rank,
                          std::span<const std::int64_t> shape,
                          const CoarsenOptions& opt) {
  AggregateSchedule agg;
  const auto count = static_cast<index_t>(flat.items.size());
  if (count == 0) return agg;
  const std::vector<index_t> lev = item_levels(flat);

  // --- chain construction: greedy run extension in flat-level order ----
  std::vector<index_t> run_of(static_cast<std::size_t>(count), -1);
  std::vector<index_t> run_start;  // aggregate level of each run
  std::vector<index_t> run_last;   // current last member
  run_start.reserve(static_cast<std::size_t>(count));
  run_last.reserve(static_cast<std::size_t>(count));
  const auto new_run = [&](index_t i) {
    run_of[i] = static_cast<index_t>(run_start.size());
    run_start.push_back(lev[i]);
    run_last.push_back(i);
  };
  for (index_t t = 0; t < count; ++t) {
    const index_t i = flat.items[t];  // level-major: deps already assigned
    if (!opt.chains || lev[i] == 0) {
      new_run(i);
      continue;
    }
    // The unique dependence one flat level below is the only possible
    // predecessor; every other dependence must be in its run or predate
    // the run's start level.
    index_t pred = -1;
    bool ok = true;
    for (index_t q = dep_ptr[i]; ok && q < dep_ptr[i + 1]; ++q) {
      const index_t j = dep_src[q];
      if (lev[j] == lev[i] - 1) {
        if (pred != -1 && pred != j) ok = false;
        pred = j;
      }
    }
    ok = ok && pred != -1 && run_last[run_of[pred]] == pred;
    if (ok) {
      const index_t r = run_of[pred];
      for (index_t q = dep_ptr[i]; ok && q < dep_ptr[i + 1]; ++q) {
        const index_t j = dep_src[q];
        if (lev[j] >= run_start[r] && run_of[j] != r) ok = false;
      }
      if (ok) {
        run_of[i] = r;
        run_last[r] = i;
        continue;
      }
    }
    new_run(i);
  }

  // --- gather run members (flat-level order within each run) ----------
  const auto nruns = static_cast<index_t>(run_start.size());
  std::vector<index_t> member_ptr(static_cast<std::size_t>(nruns) + 1, 0);
  for (index_t i = 0; i < count; ++i) ++member_ptr[run_of[i] + 1];
  for (index_t r = 0; r < nruns; ++r) member_ptr[r + 1] += member_ptr[r];
  std::vector<index_t> members(static_cast<std::size_t>(count));
  {
    std::vector<index_t> next(member_ptr.begin(), member_ptr.end() - 1);
    for (index_t t = 0; t < count; ++t) {
      const index_t i = flat.items[t];
      members[next[run_of[i]]++] = i;
    }
  }

  // --- bucket runs by aggregate level, ordered by head-item rank ------
  index_t nlevels = 0;
  for (index_t r = 0; r < nruns; ++r)
    nlevels = std::max(nlevels, run_start[r] + 1);
  std::vector<index_t> level_run_ptr(static_cast<std::size_t>(nlevels) + 1, 0);
  for (index_t r = 0; r < nruns; ++r) ++level_run_ptr[run_start[r] + 1];
  for (index_t l = 0; l < nlevels; ++l)
    level_run_ptr[l + 1] += level_run_ptr[l];
  std::vector<index_t> level_runs(static_cast<std::size_t>(nruns));
  {
    std::vector<index_t> next(level_run_ptr.begin(), level_run_ptr.end() - 1);
    for (index_t r = 0; r < nruns; ++r)
      level_runs[next[run_start[r]]++] = r;
  }
  const auto head = [&](index_t r) { return members[member_ptr[r]]; };
  for (index_t l = 0; l < nlevels; ++l)
    std::sort(level_runs.begin() + level_run_ptr[l],
              level_runs.begin() + level_run_ptr[l + 1],
              [&](index_t a, index_t b) { return rank[head(a)] < rank[head(b)]; });

  // --- emit tasks: chains in rank order, then lock-step bundles -------
  agg.level_ptr.assign(1, 0);
  agg.task_ptr.assign(1, 0);
  agg.items.reserve(static_cast<std::size_t>(count));
  std::vector<index_t> lanes;  // bundle candidates of the current level
  const auto emit_task = [&](std::span<const index_t> task_items,
                             bool is_bundle) {
    agg.items.insert(agg.items.end(), task_items.begin(), task_items.end());
    agg.task_ptr.push_back(static_cast<index_t>(agg.items.size()));
    agg.bundle.push_back(is_bundle ? 1 : 0);
  };
  for (index_t l = 0; l < nlevels; ++l) {
    // A flat level whose every item joined a chain started below it heads
    // no run: emit no aggregate level (and so no barrier) for it. The
    // remaining levels keep their order, so legality is unchanged.
    if (level_run_ptr[l] == level_run_ptr[l + 1]) continue;
    lanes.clear();
    for (index_t t = level_run_ptr[l]; t < level_run_ptr[l + 1]; ++t) {
      const index_t r = level_runs[t];
      const index_t b0 = member_ptr[r], b1 = member_ptr[r + 1];
      if (opt.bundles && b1 - b0 == 1 && shape[members[b0]] >= 0)
        lanes.push_back(members[b0]);  // bundle candidate, decided below
      else
        emit_task({members.data() + b0, static_cast<std::size_t>(b1 - b0)},
                  false);
    }
    // Group candidates by shape (stable in rank order within a shape);
    // full-width bundles first, one tail bundle >= kBundleMin, leftovers
    // fall back to singleton chains.
    std::stable_sort(lanes.begin(), lanes.end(), [&](index_t a, index_t b) {
      return shape[a] < shape[b];
    });
    std::size_t g0 = 0;
    while (g0 < lanes.size()) {
      std::size_t g1 = g0;
      while (g1 < lanes.size() && shape[lanes[g1]] == shape[lanes[g0]]) ++g1;
      std::size_t k = g0;
      while (g1 - k >= static_cast<std::size_t>(kBundleMax)) {
        emit_task({lanes.data() + k, static_cast<std::size_t>(kBundleMax)},
                  true);
        k += static_cast<std::size_t>(kBundleMax);
      }
      if (g1 - k >= static_cast<std::size_t>(kBundleMin)) {
        emit_task({lanes.data() + k, g1 - k}, true);
        k = g1;
      }
      for (; k < g1; ++k) emit_task({lanes.data() + k, 1}, false);
      g0 = g1;
    }
    agg.level_ptr.push_back(static_cast<index_t>(agg.task_ptr.size()) - 1);
  }
  return agg;
}

}  // namespace

AggregateSchedule coarsen_schedule_columns(const CscMatrix& l,
                                           const LevelSchedule& flat,
                                           const CoarsenOptions& opt) {
  const index_t n = l.cols();
  SYMPILER_CHECK(static_cast<index_t>(flat.items.size()) == n,
                 "coarsen_schedule_columns: schedule does not cover L");
  // In-adjacency of DG_L (dependencies of column i = columns j with
  // L(i,j) != 0), by counting sort over the CSC out-edges.
  std::vector<index_t> dep_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = l.col_begin(j) + 1; p < l.col_end(j); ++p)
      ++dep_ptr[l.rowind[p] + 1];
  for (index_t i = 0; i < n; ++i) dep_ptr[i + 1] += dep_ptr[i];
  std::vector<index_t> dep_src(static_cast<std::size_t>(dep_ptr[n]));
  {
    std::vector<index_t> next(dep_ptr.begin(), dep_ptr.end() - 1);
    for (index_t j = 0; j < n; ++j)
      for (index_t p = l.col_begin(j) + 1; p < l.col_end(j); ++p)
        dep_src[next[l.rowind[p]]++] = j;
  }
  // Locality rank: postorder of the solve etree (parent = first
  // off-diagonal row — the lowest-numbered dependent of each column).
  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  for (index_t j = 0; j < n; ++j)
    if (l.col_end(j) - l.col_begin(j) > 1)
      parent[j] = l.rowind[l.col_begin(j) + 1];
  const std::vector<index_t> post = postorder(parent);
  std::vector<index_t> rank(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) rank[post[k]] = k;
  // Lock-step shape: (incoming-term count, column update count).
  std::vector<std::int64_t> shape(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j)
    shape[j] = (static_cast<std::int64_t>(dep_ptr[j + 1] - dep_ptr[j]) << 32) |
               static_cast<std::int64_t>(l.col_end(j) - l.col_begin(j) - 1);
  return coarsen(flat, dep_ptr, dep_src, rank, shape, opt);
}

AggregateSchedule coarsen_schedule_supernodes(
    const SupernodePartition& sn, std::span<const index_t> parent,
    std::span<const index_t> dep_ptr, std::span<const index_t> dep_src,
    const LevelSchedule& flat, const CoarsenOptions& opt) {
  const auto nsuper = static_cast<index_t>(flat.items.size());
  SYMPILER_CHECK(static_cast<index_t>(dep_ptr.size()) == nsuper + 1,
                 "coarsen_schedule_supernodes: dependence list size mismatch");
  const std::vector<index_t> sparent = supernode_etree(sn, parent);
  const std::vector<index_t> post = postorder(sparent);
  std::vector<index_t> rank(static_cast<std::size_t>(nsuper));
  for (index_t k = 0; k < nsuper; ++k) rank[post[k]] = k;
  // Chains only: panel tasks are never lock-stepped (shape < 0 for all).
  const std::vector<std::int64_t> shape(static_cast<std::size_t>(nsuper), -1);
  CoarsenOptions chain_only = opt;
  chain_only.bundles = false;
  return coarsen(flat, dep_ptr, dep_src, rank, shape, chain_only);
}

}  // namespace sympiler::parallel
