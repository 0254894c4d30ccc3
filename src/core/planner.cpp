#include "core/planner.h"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "core/cholesky_executor.h"
#include "sparse/ops.h"
#include "util/status.h"
#include "util/timer.h"
#include "verify/verify.h"

namespace sympiler::core {

const char* to_string(ExecutionPath path) {
  switch (path) {
    case ExecutionPath::Simplicial: return "simplicial";
    case ExecutionPath::Supernodal: return "supernodal";
    case ExecutionPath::ParallelSupernodal: return "parallel-supernodal";
    case ExecutionPath::PrunedTriSolve: return "pruned-trisolve";
    case ExecutionPath::BlockedTriSolve: return "blocked-trisolve";
    case ExecutionPath::ParallelTriSolve: return "parallel-trisolve";
  }
  return "?";
}

namespace {

/// Panel storage of a supernodal Cholesky plan against nnz(L): the
/// memory amalgamation trades for wider dense blocks. Full panels hold
/// nrows x width values; the lower trapezoids leave out the unused upper
/// halves of the diagonal blocks. Empty for plans without panels.
std::string panel_fill(const CholeskySets& sets) {
  const solvers::SupernodalLayout& layout = sets.layout;
  const double nnz_l = static_cast<double>(sets.sym.l_pattern.nnz());
  if (layout.n == 0 || nnz_l == 0.0) return {};
  double trapezoid = 0.0;
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    const double w = layout.width(s);
    trapezoid += w * (w + 1.0) / 2.0 + w * (layout.nrows(s) - w);
  }
  std::ostringstream os;
  os << "\n  panel fill: "
     << static_cast<double>(layout.total_values()) / nnz_l
     << "x nnz(L) stored (" << trapezoid / nnz_l
     << "x in the lower trapezoids)";
  return os.str();
}

/// Simplicial plans: how much of the factor's and the forward solve's
/// update work runs in the executor's dense row-run loop, from L's
/// pattern (cholesky_executor.h). Empty for plans with panels.
std::string dense_runs(const CholeskyPlan& plan) {
  if (plan.path != ExecutionPath::Simplicial) return {};
  const DenseRunShare share = dense_run_share(plan.sets.sym.l_pattern);
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << "\n  dense row runs (>= "
     << kDenseRunMin << " rows): " << share.factor * 100.0
     << "% of factor update entries, " << share.solve * 100.0
     << "% of forward-solve update entries";
  return os.str();
}

std::string summarize(const char* kind, const PatternKey& key,
                      ExecutionPath path, const PlanEvidence& ev,
                      const JitSlot& jit, std::size_t bytes,
                      std::size_t workspace_bytes,
                      const std::string& path_detail = {}) {
  std::ostringstream os;
  os << kind << " plan for " << key.rows << "x" << key.cols
     << " nnz=" << key.nnz;
  if (key.rhs_nnz > 0) os << " rhs_nnz=" << key.rhs_nnz;
  os << "\n  path: " << to_string(path)
     << (ev.vs_block_profitable ? " (VS-Block profitable)"
                                : " (VS-Block below threshold)");
  // The gate reads the fundamental partition; a supernodal Cholesky plan
  // executes its amalgamation, so both counts are printed.
  const bool merged = ev.supernodes != ev.fundamental_supernodes;
  os << "\n  supernodes: " << ev.fundamental_supernodes
     << (merged ? " fundamental" : "")
     << ", avg participating size: " << ev.avg_supernode_size;
  if (merged) os << "; amalgamated to " << ev.supernodes;
  os << path_detail;
  if (ev.parallel_considered) {
    os << "\n  levels: " << ev.levels
       << ", avg level width: " << ev.avg_level_width;
    if (ev.agg_levels > 0)
      os << "\n  executed schedule: " << ev.agg_levels << " barrier levels, "
         << ev.agg_tasks << " tasks, " << ev.agg_bundles << " SIMD bundles";
  } else {
    os << "\n  levels: not scheduled (parallel gates closed)";
  }
  // Dynamic JIT state lives in the plan's slot, not the evidence: a plan
  // may be explained before, after, or instead of being compiled.
  if (const auto kernel = jit.kernel()) {
    os << "\n  jit: compiled (" << kernel->compile_seconds * 1e3 << " ms, "
       << kernel->source_bytes / 1024 << " KiB source)";
  } else if (jit.failed()) {
    os << "\n  jit: failed (" << jit.failure() << ")";
  } else {
    os << "\n  jit: "
       << (ev.jit_eligible ? "eligible (interpreting until compiled)"
                           : "ineligible (parallel plan stays interpreted)");
  }
  os << "\n  plan bytes: " << bytes
     << ", executor workspace bytes: " << workspace_bytes
     << ", planning time: " << ev.build_seconds * 1e3 << " ms";
  const PlanPhaseTimes& t = ev.phases;
  if (t.transpose + t.etree + t.counts + t.pattern + t.assemble > 0.0) {
    os << "\n  cold phases (ms): transpose " << t.transpose * 1e3
       << ", etree " << t.etree * 1e3 << ", counts " << t.counts * 1e3
       << ", pattern " << t.pattern * 1e3 << ", assemble " << t.assemble * 1e3
       << ", schedule " << t.schedule * 1e3 << ", slotmap "
       << t.slotmap * 1e3;
    if (t.verify > 0.0) os << ", verify " << t.verify * 1e3;
  }
  return os.str();
}

/// Emitted-code audit is worth its O(source) cost only when the plan is
/// actually headed for the JIT tier.
bool audit_worthwhile(const PlanEvidence& ev, const SympilerOptions& opt) {
  return ev.jit_eligible && opt.jit != JitMode::kOff;
}

/// Static verification of a freshly built plan (see verify/verify.h). A
/// finding is always a planner/scheduler bug, never an input property, so
/// it throws kPlanInvalid from plan time — before the plan can reach the
/// cache or an executor. Warm cache hits skip planning entirely and so
/// are never re-verified (the zero-alloc warm contract holds).
void verify_fresh(CholeskyPlan& plan) {
  if (!plan.options.verify_plan) return;
  const Timer vt;
  verify::VerifyOptions vo;
  vo.audit_emitted_code = audit_worthwhile(plan.evidence, plan.options);
  const verify::Report report = verify::verify_plan(plan, vo);
  plan.evidence.phases.verify = vt.seconds();
  if (!report.ok()) throw plan_verification_error(report.to_string());
}

void verify_fresh(TriSolvePlan& plan, const CscMatrix& l,
                  std::span<const index_t> beta) {
  if (!plan.options.verify_plan) return;
  const Timer vt;
  verify::VerifyOptions vo;
  vo.audit_emitted_code = audit_worthwhile(plan.evidence, plan.options);
  const verify::Report report = verify::verify_plan(plan, l, beta, vo);
  plan.evidence.phases.verify = vt.seconds();
  if (!report.ok()) throw plan_verification_error(report.to_string());
}

}  // namespace

std::string CholeskyPlan::summary() const {
  return summarize("cholesky", key, path, evidence, *jit, bytes(),
                   workspace.bytes(), panel_fill(sets) + dense_runs(*this));
}

std::string TriSolvePlan::summary() const {
  return summarize("trisolve", key, path, evidence, *jit, bytes(),
                   workspace.bytes());
}

std::uint64_t Planner::gate_hash() const {
  // FNV-1a over the planner gates, folded into the key's config hash so
  // configs that could plan differently never share a cache entry.
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0x504c414eULL;  // "PLAN"
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= kPrime;
    }
  };
  mix(static_cast<std::uint64_t>(config_.enable_parallel));
  mix(static_cast<std::uint64_t>(config_.coarsen_schedule));
  mix(static_cast<std::uint64_t>(config_.parallel_min_supernodes));
  std::uint64_t width_bits = 0;
  static_assert(sizeof(width_bits) ==
                sizeof(config_.parallel_min_avg_level_width));
  std::memcpy(&width_bits, &config_.parallel_min_avg_level_width,
              sizeof(width_bits));
  mix(width_bits);
  return h;
}

PatternKey Planner::cholesky_key(const CscMatrix& a_lower) const {
  PatternKey key = cholesky_pattern_key(a_lower, config_.options);
  key.config_hash ^= gate_hash();
  return key;
}

PatternKey Planner::trisolve_key(const CscMatrix& l,
                                 std::span<const index_t> beta) const {
  PatternKey key = trisolve_pattern_key(l, beta, config_.options);
  key.config_hash ^= gate_hash();
  return key;
}

CholeskyPlan Planner::plan_cholesky(const CscMatrix& a_lower,
                                    bool with_key) const {
  Timer timer;
  CholeskyPlan plan;
  if (with_key) plan.key = cholesky_key(a_lower);
  plan.options = config_.options;

  // The inspector runs the whole cold pipeline: one shared transpose, GNP
  // counts, the fused pattern sweep, and the parallel assembly of the
  // path-gated products — including the aggregate schedule + slot map
  // when the parallel gates are open (the schedule is cheap relative to
  // inspection; building it at plan time makes every warm factor()
  // schedule-free, across all Solvers sharing a cache).
  CholeskyPlanRequest req;
  req.build_schedule = parallel_enabled() && config_.enable_parallel;
  req.parallel_min_supernodes = config_.parallel_min_supernodes;
  req.parallel_min_avg_level_width = config_.parallel_min_avg_level_width;
  req.coarsen = config_.coarsen_schedule;
  CholeskyPlanProducts products;
  plan.sets = inspect_cholesky_planned(a_lower, config_.options, req,
                                       products, &plan.evidence.phases);

  PlanEvidence& ev = plan.evidence;
  ev.vs_block_profitable = plan.sets.vs_block_profitable;
  ev.fundamental_supernodes = products.fundamental_supernodes;
  ev.supernodes = plan.sets.vs_block_profitable
                      ? plan.sets.layout.nsuper()
                      : products.fundamental_supernodes;
  ev.avg_supernode_size = plan.sets.avg_supernode_size;

  if (!plan.sets.vs_block_profitable) {
    plan.path = ExecutionPath::Simplicial;
    // Simplicial scratch: the dense accumulation column + per-row cursor
    // map only. No packed RHS blocks — the simplicial batch loops solve().
    plan.workspace.n = a_lower.cols();
    plan.workspace.rhs_block = 0;
  } else {
    plan.workspace = cholesky_workspace_dims(plan.sets.layout);
    plan.workspace.need_dense = false;  // dense column is simplicial-only
    plan.path = ExecutionPath::Supernodal;
    if (products.scheduled) {
      ev.parallel_considered = true;
      ev.levels = products.schedule.levels();
      ev.avg_level_width = products.schedule.avg_level_width();
      if (products.committed) {
        plan.path = ExecutionPath::ParallelSupernodal;
        // Slot map of the forward panel solve: privatizes the tail
        // updates so the level-set batch solve needs no atomics and is
        // bit-identical to the serial panel solves (levelset.h).
        plan.solve_update_map = std::move(products.solve_update_map);
        plan.workspace.update_slots = plan.solve_update_map.slots();
        // The executed schedule: chain fusion over the supernodal update
        // dependences (identity aggregate when coarsening is off).
        plan.agg = std::move(products.agg);
        ev.agg_levels = plan.agg.levels();
        ev.agg_tasks = plan.agg.tasks();
        ev.agg_bundles = plan.agg.bundles();
      }
    }
  }
  // JIT eligibility is a path property: sequential plans may be lowered to
  // a plan-compiled kernel (plan_compiler.h); the parallel interpreter
  // keeps ParallelSupernodal plans.
  ev.jit_eligible = plan.path == ExecutionPath::Simplicial ||
                    plan.path == ExecutionPath::Supernodal;
  verify_fresh(plan);
  ev.build_seconds = timer.seconds();
  return plan;
}

std::uint64_t planner_transpose_count() { return transpose_count(); }

TriSolvePlan Planner::plan_trisolve(const CscMatrix& l,
                                    std::span<const index_t> beta,
                                    bool with_key) const {
  Timer timer;
  TriSolvePlan plan;
  if (with_key) plan.key = trisolve_key(l, beta);
  plan.options = config_.options;
  plan.sets = inspect_trisolve(l, beta, config_.options);

  PlanEvidence& ev = plan.evidence;
  ev.vs_block_profitable = plan.sets.vs_block_profitable;
  ev.fundamental_supernodes = plan.sets.blocks.count();
  ev.supernodes = plan.sets.blocks.count();
  ev.avg_supernode_size = plan.sets.avg_supernode_size;

  plan.path = plan.sets.vs_block_profitable ? ExecutionPath::BlockedTriSolve
                                            : ExecutionPath::PrunedTriSolve;
  // The CSC traversals need no scatter map or dense column on any path,
  // and only the blocked path gathers block tails or packs RHS blocks —
  // per workspace.h, a plan must not pin never-read scratch.
  plan.workspace.n = l.cols();
  plan.workspace.need_map = false;
  plan.workspace.need_dense = false;
  if (plan.path == ExecutionPath::BlockedTriSolve) {
    for (index_t s = 0; s < plan.sets.blocks.count(); ++s) {
      const index_t c1 = plan.sets.blocks.start[s];
      const index_t w = plan.sets.blocks.width(s);
      plan.workspace.max_tail =
          std::max(plan.workspace.max_tail, plan.sets.colcount[c1] - w);
    }
  } else {
    plan.workspace.rhs_block = 0;  // pruned batches loop solve()
  }
  const bool dense_rhs = static_cast<index_t>(beta.size()) == l.cols();
  // The parallel path also requires vi_prune: its serial reference is the
  // reach-order pruned solve. The naive (!vi_prune) loop skips exact-zero
  // x[j] columns entirely, a data-dependent special case the level sweep
  // cannot replay from the pattern alone without breaking bit identity on
  // signed zeros.
  if (parallel_enabled() && config_.enable_parallel && dense_rhs &&
      config_.options.vi_prune &&
      plan.path == ExecutionPath::PrunedTriSolve) {
    ev.parallel_considered = true;
    const parallel::LevelSchedule schedule =
        parallel::level_schedule_columns(l);
    ev.levels = schedule.levels();
    ev.avg_level_width = schedule.avg_level_width();
    if (ev.avg_level_width >= config_.parallel_min_avg_level_width) {
      plan.path = ExecutionPath::ParallelTriSolve;
      // Slot map privatizing the column updates: the level-set solve
      // scatters into plan-assigned slots and folds them in serial order,
      // so it is deterministic and atomic-free (levelset.h). The packed
      // multi-RHS level sweep reuses the same map. The serial order to
      // replay is the pruned executor's iteration order: the reach
      // sequence.
      plan.update_map = parallel::update_slots_columns(l, plan.sets.reach);
      plan.workspace.update_slots = plan.update_map.slots();
      plan.workspace.rhs_block = kRhsBlockWidth;
      // The executed schedule: chain fusion + SIMD row bundles mined from
      // DG_L, or the identity aggregate when coarsening is off.
      // Pattern-pure, so cached with the plan.
      plan.agg = parallel::coarsen_schedule_columns(
          l, schedule,
          parallel::CoarsenOptions{config_.coarsen_schedule,
                                   config_.coarsen_schedule});
      ev.agg_levels = plan.agg.levels();
      ev.agg_tasks = plan.agg.tasks();
      ev.agg_bundles = plan.agg.bundles();
    }
  }
  ev.jit_eligible = plan.path == ExecutionPath::PrunedTriSolve ||
                    plan.path == ExecutionPath::BlockedTriSolve;
  verify_fresh(plan, l, beta);
  ev.build_seconds = timer.seconds();
  return plan;
}

bool Planner::parallel_enabled() {
#ifdef SYMPILER_HAS_OPENMP
  return true;
#else
  return false;  // level-set execution degenerates to sequential + barriers
#endif
}

}  // namespace sympiler::core
