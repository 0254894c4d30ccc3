#include "api/solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/plan_store.h"
#include "parallel/levelset.h"
#include "solvers/supernodal.h"
#include "verify/verify.h"

namespace sympiler::api {

std::shared_ptr<SymbolicContext> SymbolicContext::global() {
  static const std::shared_ptr<SymbolicContext> instance =
      std::make_shared<SymbolicContext>();
  return instance;
}

std::string FactorReport::to_string() const {
  if (!degraded())
    return store_loaded ? "ok (plan loaded from store)"
                        : "ok (no degradation)";
  std::ostringstream os;
  os << "degraded:";
  if (serial_fallback) os << " parallel->serial";
  if (store_recovered) os << " store->replan";
  if (shift_attempts_used > 0)
    os << " diagonal-shift(+" << shift_applied << ", attempt "
       << shift_attempts_used << ")";
  if (!last_error.ok()) os << " [" << last_error.to_string() << "]";
  return os.str();
}

// ------------------------------------------------------- input validation

namespace {

/// Diagonal-first check shared by both validators: in a validated CSC
/// lower triangle (strictly increasing rows per column) column j must
/// store the diagonal as its first entry — a first row above j means an
/// upper-triangle entry, below j a missing diagonal.
void check_diagonal_first(const CscMatrix& m, const char* who) {
  for (index_t j = 0; j < m.cols(); ++j) {
    SYMPILER_CHECK(m.col_end(j) > m.col_begin(j),
                   std::string(who) + ": column " + std::to_string(j) +
                       " is empty (missing diagonal)");
    const index_t r0 = m.rowind[static_cast<std::size_t>(m.col_begin(j))];
    if (r0 > j)
      throw invalid_matrix_error(std::string(who) +
                                 ": missing diagonal entry in column " +
                                 std::to_string(j));
    if (r0 < j)
      throw invalid_matrix_error(
          std::string(who) + ": entry above the diagonal at (" +
          std::to_string(r0) + ", " + std::to_string(j) +
          ") — pass the lower triangle only");
  }
}

/// Optional O(nnz) value scan (SympilerOptions::scan_values): NaN/Inf in
/// the input would otherwise surface much later as a mysterious numeric
/// breakdown (or propagate silently through a solve).
void check_values_finite(const CscMatrix& m, const char* who) {
  for (std::size_t p = 0; p < m.values.size(); ++p)
    if (!std::isfinite(m.values[p]))
      throw invalid_matrix_error(std::string(who) +
                                 ": non-finite value at entry " +
                                 std::to_string(p));
}

/// Plan lookup of both facades: the in-memory plan cache, and behind it
/// the persistence tier when opt.plan_store_dir is set (core/plan_store.h,
/// docs/persistence.md). On a cache miss the store is tried before `build`
/// replans; a loaded plan is published only after `reverify` passes. A
/// rejected file — corrupt, stale, or failing re-verification — takes
/// rung 4 of the degradation ladder: discard it, replan from the matrix,
/// and let the write-behind rewrite a good file. The write-behind is
/// gated: plans whose estimated load cost exceeds half their measured
/// build time are cheaper to replan after a restart than to load, so the
/// store declines them (counted in its stats) instead of pessimizing
/// every future warm start.
template <class Plan, class Build, class Reverify>
typename core::PlanCache<Plan>::Lookup lookup_plan(
    core::PlanCache<Plan>& cache, const core::PatternKey& key,
    const core::SympilerOptions& opt, FactorReport& report,
    const Build& build, const Reverify& reverify) {
  if (opt.plan_store_dir.empty()) return cache.get_or_build(key, build);
  const auto store = core::PlanStore::open(opt.plan_store_dir);
  return cache.get_or_build_stored(
      key,
      [&]() -> std::shared_ptr<const Plan> {
        Plan from_disk;
        core::PlanStore::Loaded loaded = store->load(key, &from_disk);
        if (!loaded.found) return nullptr;
        if (loaded.status.ok()) {
          const verify::Report check = reverify(from_disk);
          if (!check.ok())
            loaded.status = Status{ErrorCode::kCorruptPlanFile,
                                   "persisted plan failed load-time "
                                   "re-verification:\n" +
                                       check.to_string()};
        }
        if (!loaded.status.ok()) {
          report.store_recovered = true;
          report.last_error = loaded.status;
          store->discard(key, std::is_same_v<Plan, core::CholeskyPlan>);
          return nullptr;
        }
        report.store_loaded = true;
        return std::make_shared<const Plan>(std::move(from_disk));
      },
      build,
      [&](const std::shared_ptr<const Plan>& built) {
        store->save_async_if_profitable(built);
      });
}

}  // namespace

// Both validators make one pass that only raises flags (CscMatrix::valid
// with the diagonal-first check, and the RHS range); a flagged input
// reruns the ordered checks below, which throw the first violation's
// message, so a valid input never pays for them.

void validate_factor_input(const CscMatrix& a_lower, bool scan_values) {
  if (a_lower.rows() != a_lower.cols() ||
      !a_lower.valid(/*diagonal_first=*/true)) {
    a_lower.validate();
    SYMPILER_CHECK(a_lower.rows() == a_lower.cols(),
                   "solver: matrix must be square");
    check_diagonal_first(a_lower, "solver");
  }
  if (scan_values) check_values_finite(a_lower, "solver");
}

void validate_trisolve_input(const CscMatrix& l, std::span<const index_t> beta,
                             bool scan_values) {
  bool beta_out = false;
  for (const index_t i : beta)
    beta_out |= static_cast<std::uint32_t>(i) >=
                static_cast<std::uint32_t>(l.cols());
  if (l.rows() != l.cols() || !l.valid(/*diagonal_first=*/true) || beta_out) {
    l.validate();
    SYMPILER_CHECK(l.rows() == l.cols(),
                   "triangular solver: L must be square");
    check_diagonal_first(l, "triangular solver");
    for (const index_t i : beta)
      SYMPILER_CHECK(i >= 0 && i < l.cols(),
                     "triangular solver: RHS pattern index " +
                         std::to_string(i) + " out of range");
  }
  if (scan_values) check_values_finite(l, "triangular solver");
}

// ------------------------------------------------------------------ Solver

Solver::Solver(SolverConfig config, std::shared_ptr<SymbolicContext> context)
    : config_(config),
      context_(context ? std::move(context)
                       : std::make_shared<SymbolicContext>(
                             config.cache_byte_budget, config.cache_shards)) {}

void Solver::factor(const CscMatrix& a_lower) {
  SYMPILER_CHECK(a_lower.rows() == a_lower.cols(),
                 "solver: matrix must be square");
  if (config_.options.validate_input)
    validate_factor_input(a_lower, config_.options.scan_values);
  // Invalidate up front: a numeric failure below (non-SPD pivot) must not
  // leave a half-overwritten factor reachable through solve().
  factorized_ = false;
  report_ = {};
  prepare_symbolic(a_lower);
  factor_numeric(a_lower);
  factorized_ = true;
}

void Solver::run_numeric(const CscMatrix& a_lower) {
  // Thin dispatch on the plan's path — every decision was made at plan
  // time and cached with the plan. When a caller has compiled the plan
  // (PlanCompiler::compile), the executor adopts the kernel internally
  // (same buffers, pinned bit-identical).
  if (plan_->path == ExecutionPath::ParallelSupernodal) {
    Status fallback;
    if (parallel::parallel_cholesky(*plan_, a_lower, panels_, &fallback)) {
      report_.serial_fallback = true;
      report_.last_error = fallback;
    }
  } else {
    executor_->factorize(a_lower);
  }
}

void Solver::factor_numeric(const CscMatrix& a_lower) {
  try {
    run_numeric(a_lower);
    return;
  } catch (const numerical_error& e) {
    if (config_.options.shift_attempts <= 0) throw;
    report_.last_error = e.status();
  }
  // Shift-retry rung: the pivot broke down, the caller opted into
  // regularization. Retry factoring A + sigma*I with sigma growing from
  // ~1e-10 * max|diag| by 1000x per attempt (the CHOLMOD/LDL folklore
  // ladder: a tiny shift rescues near-singular matrices without visibly
  // perturbing the solution; a few decades of growth give up quickly on
  // genuinely indefinite ones). The shift used is recorded in report() —
  // the caller knows it solved a perturbed system.
  value_t max_diag = 0.0;
  for (index_t j = 0; j < a_lower.cols(); ++j) {
    const index_t p = a_lower.col_begin(j);
    if (p < a_lower.col_end(j) && a_lower.rowind[p] == j)
      max_diag = std::max(max_diag, std::abs(a_lower.values[p]));
  }
  CscMatrix shifted = a_lower;
  value_t sigma = (max_diag > 0.0 ? max_diag : 1.0) * 1e-10;
  for (index_t attempt = 1;; ++attempt, sigma *= 1000.0) {
    for (index_t j = 0; j < shifted.cols(); ++j) {
      const index_t p = shifted.col_begin(j);
      if (p < shifted.col_end(j) && shifted.rowind[p] == j)
        shifted.values[p] = a_lower.values[p] + sigma;
    }
    try {
      run_numeric(shifted);
      report_.shift_attempts_used = attempt;
      report_.shift_applied = sigma;
      return;
    } catch (const numerical_error& e) {
      report_.last_error = e.status();
      if (attempt >= config_.options.shift_attempts) throw;
    }
  }
}

void Solver::prepare_symbolic(const CscMatrix& a_lower) {
  const core::Planner planner(config_.planner_config());
  const core::PatternKey key = planner.cholesky_key(a_lower);
  if (has_key_ && key == key_) {
    // Same pattern: the standing plan serves this factor with no symbolic
    // work at all — report it as cached reuse.
    symbolic_cached_ = true;
    return;
  }

  // Re-route: drop the standing key before any step that can throw (plan
  // build, workspace growth). Otherwise a failed re-route would leave the
  // old key paired with a half-prepared executor, and the next factor()
  // of that old pattern would take the early return above into it.
  has_key_ = false;
  core::CholeskyCache::Lookup lookup = lookup_plan(
      context_->cholesky_cache(), key, config_.options, report_,
      [&] { return planner.plan_cholesky(a_lower, key); },
      [](const core::CholeskyPlan& plan) { return verify::verify_plan(plan); });
  symbolic_cached_ = lookup.hit;
  plan_ = std::move(lookup.plan);
  factorized_ = false;
  ws_.set_guard(config_.options.guard_workspace);

  if (plan_->path == ExecutionPath::ParallelSupernodal) {
    // What solve()'s level-set sweep shares across the team: one packed
    // column and the privatized terms (a wider solve_batch grows them on
    // its first call; per-thread tail scratch lives in the sweeps'
    // thread_local workspaces, and the parallel factorization in its own).
    // Sized before the panels: allocated after them, these buffers tend to
    // sit right above the panels and split the free block a newly routed
    // Solver's panels would reuse (peak RSS then grew by up to a panel).
    core::WorkspaceDims dims = plan_->workspace;
    dims.rhs_block = 1;
    dims.max_panel_rows = 0;
    dims.max_panel_width = 0;
    dims.max_tail = 0;
    dims.need_map = false;
    dims.need_dense = false;
    ws_.ensure(dims);
    panels_.assign(
        static_cast<std::size_t>(plan_->sets.layout.total_values()), 0.0);
    executor_.reset();
  } else {
    executor_ = std::make_unique<core::CholeskyExecutor>(
        plan_, config_.options.guard_workspace);
    panels_.clear();
    panels_.shrink_to_fit();
  }
  // Commit the key last: everything above succeeded, the executor state is
  // coherent, and the early-return fast path may now trust it.
  key_ = key;
  has_key_ = true;
}

void Solver::solve(std::span<value_t> bx) const {
  SYMPILER_CHECK(factorized_, "solver: solve() before factor()");
  SYMPILER_CHECK(static_cast<index_t>(bx.size()) == plan_->sets.n(),
                 "solver: RHS size mismatch");
  if (plan_->path == ExecutionPath::ParallelSupernodal)
    solve_batch(bx, 1);  // the level-set sweep over one packed column
  else
    executor_->solve(bx);
}

void Solver::solve_batch(std::span<value_t> bx, index_t nrhs) const {
  SYMPILER_CHECK(factorized_, "solver: solve_batch() before factor()");
  SYMPILER_CHECK(nrhs >= 0, "solver: negative RHS count");
  const auto n = static_cast<std::size_t>(plan_->sets.n());
  SYMPILER_CHECK(bx.size() == n * static_cast<std::size_t>(nrhs),
                 "solver: batch size mismatch");
  // Thin dispatch on the plan's path: a parallel plan sweeps packed RHS
  // blocks through its aggregate schedule (parallel inside each level,
  // slot-privatized forward updates — bit-identical per column to the
  // serial panel solves; solve() takes this path with one column); the
  // sequential supernodal path tiles blocks over the multi-RHS panel
  // kernels.
  if (plan_->path == ExecutionPath::ParallelSupernodal) {
    const core::Workspace::Borrow guard(ws_);
    Status fallback;
    if (parallel::parallel_panel_solve_batch(*plan_, panels_, bx, nrhs, ws_,
                                             &fallback)) {
      report_.serial_fallback = true;
      report_.last_error = fallback;
    }
  } else {
    executor_->solve_batch(bx, nrhs);
  }
}

void Solver::solve_batch(std::vector<std::vector<value_t>>& rhs) const {
  SYMPILER_CHECK(factorized_, "solver: solve_batch() before factor()");
  const auto n = static_cast<std::size_t>(plan_->sets.n());
  for (const std::vector<value_t>& r : rhs)
    SYMPILER_CHECK(r.size() == n, "solver: RHS size mismatch");
  // Gather the scattered columns into one contiguous batch so they ride
  // the blocked (and OpenMP-parallel) span path; one O(n * nrhs) copy
  // each way is noise next to the solves.
  std::vector<value_t> flat(n * rhs.size());
  for (std::size_t r = 0; r < rhs.size(); ++r)
    std::copy(rhs[r].begin(), rhs[r].end(), flat.begin() + r * n);
  solve_batch(flat, static_cast<index_t>(rhs.size()));
  for (std::size_t r = 0; r < rhs.size(); ++r)
    std::copy(flat.begin() + r * n, flat.begin() + (r + 1) * n,
              rhs[r].begin());
}

CscMatrix Solver::factor_csc() const {
  SYMPILER_CHECK(factorized_, "solver: factor_csc() before factor()");
  if (plan_->path == ExecutionPath::ParallelSupernodal)
    return solvers::panels_to_csc(plan_->sets.layout, panels_,
                                  plan_->sets.factor_pattern());
  return executor_->factor_csc();
}

const std::shared_ptr<const core::CholeskyPlan>& Solver::plan() const {
  SYMPILER_CHECK(plan_ != nullptr, "solver: plan() before factor()");
  return plan_;
}

CacheStats Solver::cache_stats() const {
  return context_->cholesky_cache().stats();
}

// -------------------------------------------------------- TriangularSolver

namespace {

std::shared_ptr<const core::TriSolvePlan> lookup_trisolve_plan(
    const CscMatrix& l, std::span<const index_t> beta,
    const SolverConfig& config, SymbolicContext& context,
    bool& symbolic_cached, FactorReport& report) {
  // Validation runs here — in the member initializer, before any planning
  // touches the (possibly malformed) structure arrays.
  if (config.options.validate_input)
    validate_trisolve_input(l, beta, config.options.scan_values);
  const core::Planner planner(config.planner_config());
  const core::PatternKey key = planner.trisolve_key(l, beta);
  core::TriSolveCache::Lookup lookup = lookup_plan(
      context.trisolve_cache(), key, config.options, report,
      [&] { return planner.plan_trisolve(l, beta, key); },
      [&](const core::TriSolvePlan& plan) {
        return verify::verify_plan(plan, l, beta);
      });
  symbolic_cached = lookup.hit;
  return std::move(lookup.plan);
}

}  // namespace

TriangularSolver::TriangularSolver(const CscMatrix& l,
                                   std::span<const index_t> beta,
                                   SolverConfig config,
                                   std::shared_ptr<SymbolicContext> context)
    : context_(context ? std::move(context)
                       : std::make_shared<SymbolicContext>(
                             config.cache_byte_budget, config.cache_shards)),
      l_(&l),
      n_(l.cols()),
      executor_(lookup_trisolve_plan(l, beta, config, *context_,
                                     symbolic_cached_, report_),
                l, config.options.guard_workspace) {
  pws_.set_guard(config.options.guard_workspace);
  if (executor_.plan().path == ExecutionPath::ParallelTriSolve) {
    // Pre-grow the parallel interpreter's terms buffer plus the one-column
    // packed block solve() sweeps, so the first solve() is already
    // allocation-free (the packed batch block still grows on the first
    // solve_batch, sized to the batch actually used).
    core::WorkspaceDims dims = executor_.plan().workspace;
    dims.rhs_block = 1;
    pws_.ensure(dims);
  }
}

void TriangularSolver::clear_fallback() const {
  // The store outcome recorded at construction stays; last_error is reset
  // only when it was this rung's (move-assigning an empty Status frees and
  // never allocates).
  if (!report_.serial_fallback) return;
  report_.serial_fallback = false;
  report_.last_error = Status{};
}

void TriangularSolver::solve(std::span<value_t> x) const {
  SYMPILER_CHECK(static_cast<index_t>(x.size()) == n_,
                 "triangular solver: size mismatch");
  if (executor_.plan().path == ExecutionPath::ParallelTriSolve) {
    // The level-set sweep over one packed column, with the batch's
    // degradation rungs: atomic-free, bit-identical to executor_.solve()
    // at any thread count.
    solve_batch(x, 1);
    return;
  }
  clear_fallback();
  executor_.solve(x);
}

void TriangularSolver::solve_batch(std::span<value_t> xs, index_t nrhs) const {
  SYMPILER_CHECK(nrhs >= 0, "triangular solver: negative RHS count");
  const std::size_t n = static_cast<std::size_t>(n_);
  SYMPILER_CHECK(xs.size() == n * static_cast<std::size_t>(nrhs),
                 "triangular solver: batch size mismatch");
  clear_fallback();
  if (executor_.plan().path == ExecutionPath::ParallelTriSolve) {
    // Blocked level-set path: packed RHS blocks sweep the plan schedule
    // (parallel inside each level), per column bit-identical to the
    // sequential executor. The Borrow sits outside the try: a
    // concurrent-borrow trip is caller misuse and must propagate, not
    // degrade.
    const core::Workspace::Borrow guard(pws_);
    try {
      Status fallback;
      if (parallel::parallel_trisolve_batch(*l_, executor_.plan(), xs, nrhs,
                                            pws_, &fallback)) {
        report_.serial_fallback = true;
        report_.last_error = fallback;
      }
    } catch (const resource_exhausted_error& e) {
      // Entry ensure failure: xs is untouched (packing happens after the
      // grow), so the executor's looped solve is a clean last rung.
      report_.serial_fallback = true;
      report_.last_error = e.status();
      executor_.solve_batch(xs, nrhs);
    } catch (const std::bad_alloc& e) {
      report_.serial_fallback = true;
      report_.last_error = Status{ErrorCode::kResourceExhausted, e.what()};
      executor_.solve_batch(xs, nrhs);
    }
    return;
  }
  // Sequential paths: the executor tiles the batch into packed RHS blocks
  // on its BlockedTriSolve path (bit-identical per column to looped
  // solve()), and loops on the pruned path.
  executor_.solve_batch(xs, nrhs);
}

CacheStats TriangularSolver::cache_stats() const {
  return context_->trisolve_cache().stats();
}

}  // namespace sympiler::api
