#include "workloads.h"

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

#include "api/solver.h"
#include "core/plan_compiler.h"
#include "core/plan_serde.h"
#include "core/plan_store.h"
#include "core/planner.h"
#include "parallel/levelset.h"
#include "parallel/schedule.h"
#include "solvers/simplicial.h"
#include "solvers/supernodal.h"
#include "solvers/trisolve.h"
#include "sparse/ops.h"
#include "stats.h"
#include "trace.h"
#include "util/timer.h"
#include "verify/verify.h"

namespace perfbench {

namespace api = sympiler::api;
namespace core = sympiler::core;
namespace fs = std::filesystem;
using sympiler::CacheStats;
using sympiler::Status;
using sympiler::Timer;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// setup_s is the median of at least this many fresh set-ups per run (one
// per window of loop time; on restart_store every restart is a set-up).
constexpr std::size_t kMinSetups = 5;

// Traced-run blocks: a fresh set-up plus a fixed number of steps, so the
// per-block counts repeat exactly between runs.
constexpr std::size_t kNewtonBlockSteps = 100;
constexpr std::size_t kTrisolveBlockSteps = 1000;
constexpr std::size_t kChurnBlockSteps = 300;
constexpr std::size_t kRestartBlockRestarts = 4;
constexpr int kMinBlocks = 2;  ///< of each kind (untraced, traced)

// pattern_churn's private context: an absolute byte budget of ~40% of the
// family's plan bytes (measured at the commit that introduced the
// benchmark), in one shard so the budget acts on the whole family.
constexpr std::size_t kChurnBudgetBytes = std::size_t{15} << 20;
constexpr std::size_t kChurnShards = 1;

constexpr std::size_t kTracerCapacity = std::size_t{1} << 19;

/// backward_error is the geometric mean over the first checked steps of
/// the loop (a fixed set per seed, so the value repeats exactly; the loop
/// runs at least this long). A mean of logs, unlike a median, moves
/// smoothly with the mix of patterns a family workload visits. Every
/// checked step, set-ups included, must stay under the tolerance.
constexpr std::size_t kBackwardErrorSteps = 1000;
/// Floor of a step's backward error inside the geometric mean (an exact
/// zero residual would otherwise send it to zero).
constexpr double kBackwardErrorFloor = 1e-20;

/// Step metrics are taken per window of at least this much loop time (and
/// enough steps for a p90 with 10 samples beyond it), then averaged over
/// the windows with the fastest and slowest kWindowTrim of them dropped.
/// A window's median resists stalls; the trimmed mean resists odd windows
/// and, unlike a median over windows, moves smoothly with the share of a
/// run the host spends at each of its speed levels instead of jumping to
/// whichever level held most windows.
constexpr double kWindowSeconds = 1.0;
constexpr double kWindowTrim = 0.1;

/// Untimed warm-up before any measurement. On the KVM host this benchmark
/// was tuned on, a fresh process runs its OpenMP steps up to 30x slower
/// for about its first second (cross-thread wake-ups are slow until the
/// host adapts); users of a long-lived solver never see that.
constexpr double kWarmUpSeconds = 2.0;

// ------------------------------------------------------------------ checks

double vec_inf_norm(std::span<const value_t> v) {
  double m = 0.0;
  for (const value_t x : v) m = std::max(m, std::abs(x));
  return m;
}

/// ||A||inf of a symmetric matrix stored as its lower triangle.
double sym_inf_norm(const CscMatrix& lower) {
  std::vector<double> row(static_cast<std::size_t>(lower.rows()), 0.0);
  for (index_t j = 0; j < lower.cols(); ++j)
    for (index_t p = lower.col_begin(j); p < lower.col_end(j); ++p) {
      const index_t i = lower.rowind[static_cast<std::size_t>(p)];
      const double v = std::abs(lower.values[static_cast<std::size_t>(p)]);
      row[static_cast<std::size_t>(i)] += v;
      if (i != j) row[static_cast<std::size_t>(j)] += v;
    }
  return vec_inf_norm(row);
}

/// ||L||inf of a general CSC matrix.
double inf_norm(const CscMatrix& m) {
  std::vector<double> row(static_cast<std::size_t>(m.rows()), 0.0);
  for (std::size_t p = 0; p < m.values.size(); ++p)
    row[static_cast<std::size_t>(m.rowind[p])] += std::abs(m.values[p]);
  return vec_inf_norm(row);
}

double backward_error(double residual, double a_norm, std::span<const value_t> x,
                      std::span<const value_t> b) {
  const double denom = a_norm * vec_inf_norm(x) + vec_inf_norm(b);
  return denom > 0.0 ? residual / denom : residual;
}

std::uint64_t digest(const std::vector<value_t>& x) {
  return fnv1a(x.data(), x.size() * sizeof(value_t));
}

/// Outcome counts of the operations a run attempted.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t degraded = 0;  ///< FactorReport::degraded() steps
  double max_backward_error = 0.0;
  std::vector<std::string> errors;  ///< first few failure messages

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 4) errors.push_back(what);
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    degraded += o.degraded;
    max_backward_error = std::max(max_backward_error, o.max_backward_error);
    for (const auto& e : o.errors)
      if (errors.size() < 4) errors.push_back(e);
  }
};

/// What the traced callers observe beyond their spans.
struct LayerLog {
  std::vector<core::PlanPhaseTimes> phases;  ///< of every plan built
  std::vector<double> save_write_seconds;  ///< saves that wrote a file
  double flops = 0.0;  ///< numeric work of the traced executor spans
};

CacheStats minus(CacheStats a, const CacheStats& b) {
  a.hits -= b.hits;
  a.misses -= b.misses;
  a.evictions -= b.evictions;
  a.evicted_bytes -= b.evicted_bytes;
  return a;
}

// ------------------------------------------------------------------ callers

/// One caller of the Cholesky pipeline: factor + solve, on a context that
/// restart() replaces with a fresh one.
class CholeskyCaller {
 public:
  virtual ~CholeskyCaller() = default;
  virtual void restart() = 0;
  virtual void factor_solve(const CscMatrix& a, std::span<value_t> x,
                            std::int32_t step) = 0;
  [[nodiscard]] virtual bool degraded() const = 0;
  [[nodiscard]] virtual CacheStats cache_stats() const = 0;
};

/// End-to-end caller: the public facade, exactly as an application uses it.
class FacadeCholesky final : public CholeskyCaller {
 public:
  FacadeCholesky(api::SolverConfig config, std::size_t budget, std::size_t shards)
      : config_(std::move(config)), budget_(budget), shards_(shards) {}

  void restart() override {
    solver_.reset();
    if (context_) retired_ += context_->cholesky_cache().stats();
    context_ = std::make_shared<api::SymbolicContext>(budget_, shards_);
    solver_ = std::make_unique<api::Solver>(config_, context_);
  }
  void factor_solve(const CscMatrix& a, std::span<value_t> x,
                    std::int32_t /*step*/) override {
    solver_->factor(a);
    solver_->solve(x);
  }
  [[nodiscard]] bool degraded() const override {
    return solver_->report().degraded();
  }
  [[nodiscard]] CacheStats cache_stats() const override {
    return context_ ? retired_ + context_->cholesky_cache().stats() : retired_;
  }

 private:
  api::SolverConfig config_;
  std::size_t budget_;
  std::size_t shards_;
  CacheStats retired_;  ///< counters of the contexts restart() replaced
  std::shared_ptr<api::SymbolicContext> context_;
  std::unique_ptr<api::Solver> solver_;
};

/// Traced caller: the facade's call sequence made from each layer's public
/// entry point, one span per call (api/solver.cpp is the reference).
class TracedCholesky final : public CholeskyCaller {
 public:
  TracedCholesky(Tracer& tracer, LayerLog& log, api::SolverConfig config,
                 std::size_t budget, std::size_t shards)
      : tracer_(tracer),
        log_(log),
        config_(std::move(config)),
        planner_(config_.planner_config()),
        budget_(budget),
        shards_(shards) {
    if (!config_.options.plan_store_dir.empty())
      store_ = core::PlanStore::open(config_.options.plan_store_dir);
  }

  void restart() override {
    executor_.reset();
    plan_.reset();
    has_key_ = false;
    if (context_) retired_ += context_->cholesky_cache().stats();
    context_ = std::make_shared<api::SymbolicContext>(budget_, shards_);
  }

  void factor_solve(const CscMatrix& a, std::span<value_t> x,
                    std::int32_t step) override {
    const core::SympilerOptions& opt = config_.options;
    {
      const Tracer::Scope s(&tracer_, "api.validate", step);
      if (opt.validate_input) api::validate_factor_input(a, opt.scan_values);
    }
    core::PatternKey key;
    {
      const Tracer::Scope s(&tracer_, "pattern_key.hash", step);
      key = planner_.cholesky_key(a);
    }
    if (!(has_key_ && key == key_)) route(a, key, step);
    const bool parallel = plan_->path == core::ExecutionPath::ParallelSupernodal;
    degraded_ = false;
    {
      const Tracer::Scope s(&tracer_, "executor.factor", step);
      if (parallel) {
        Status fallback;
        degraded_ = sympiler::parallel::parallel_cholesky(*plan_, a, panels_, &fallback);
      } else {
        executor_->factorize(a);
      }
    }
    log_.flops += plan_->sets.flops() + 4.0 * static_cast<double>(plan_->sets.sym.fill_nnz);
    const Tracer::Scope s(&tracer_, "executor.solve", step);
    if (parallel) {
      sympiler::solvers::panel_forward_solve(plan_->sets.layout, panels_, x, tail_);
      sympiler::solvers::panel_backward_solve(plan_->sets.layout, panels_, x, tail_);
    } else {
      executor_->solve(x);
    }
  }
  [[nodiscard]] bool degraded() const override { return degraded_; }
  [[nodiscard]] CacheStats cache_stats() const override {
    return context_ ? retired_ + context_->cholesky_cache().stats() : retired_;
  }

 private:
  void route(const CscMatrix& a, const core::PatternKey& key, std::int32_t step) {
    has_key_ = false;
    auto build = [&] {
      const Tracer::Scope s(&tracer_, "planner.plan", step);
      core::CholeskyPlan plan = planner_.plan_cholesky(a);
      log_.phases.push_back(plan.evidence.phases);
      return plan;
    };
    core::CholeskyCache::Lookup lookup;
    {
      const Tracer::Scope s(&tracer_, "symbolic_cache.lookup", step);
      if (store_ == nullptr) {
        lookup = context_->cholesky_cache().get_or_build(key, build);
      } else {
        auto load = [&]() -> std::shared_ptr<const core::CholeskyPlan> {
          core::CholeskyPlan from_disk;
          core::PlanStore::Loaded loaded;
          {
            const Tracer::Scope l(&tracer_, "plan_store.load", step);
            loaded = store_->load(key, &from_disk);
          }
          if (!loaded.found) return nullptr;
          if (loaded.status.ok()) {
            bool ok = false;
            {
              const Tracer::Scope v(&tracer_, "verify.verify", step);
              ok = sympiler::verify::verify_plan(from_disk).ok();
            }
            if (!ok)
              loaded.status = Status{sympiler::ErrorCode::kCorruptPlanFile,
                                     "persisted plan failed re-verification"};
          }
          if (!loaded.status.ok()) {
            store_->discard(key, /*cholesky=*/true);
            return nullptr;
          }
          return std::make_shared<const core::CholeskyPlan>(std::move(from_disk));
        };
        auto save = [&](const std::shared_ptr<const core::CholeskyPlan>& built) {
          const Tracer::Scope w(&tracer_, "plan_store.save", step);
          const std::uint64_t writes = store_->stats().writes;
          const Timer timer;
          store_->save_async_if_profitable(built);
          store_->flush();
          if (store_->stats().writes > writes)
            log_.save_write_seconds.push_back(timer.seconds());
        };
        lookup = context_->cholesky_cache().get_or_build_stored(key, load, build, save);
      }
    }
    plan_ = std::move(lookup.plan);
    {
      const Tracer::Scope s(&tracer_, "executor.prepare", step);
      if (plan_->path == core::ExecutionPath::ParallelSupernodal) {
        panels_.assign(static_cast<std::size_t>(plan_->sets.layout.total_values()), 0.0);
        tail_.assign(static_cast<std::size_t>(
                         sympiler::solvers::max_tail_rows(plan_->sets.layout)) + 1,
                     0.0);
        executor_.reset();
      } else {
        executor_ = std::make_unique<core::CholeskyExecutor>(plan_);
        panels_.clear();
      }
    }
    key_ = key;
    has_key_ = true;
  }

  Tracer& tracer_;
  LayerLog& log_;
  api::SolverConfig config_;
  core::Planner planner_;
  std::size_t budget_;
  std::size_t shards_;
  std::shared_ptr<core::PlanStore> store_;
  CacheStats retired_;
  std::shared_ptr<api::SymbolicContext> context_;
  core::PatternKey key_;
  bool has_key_ = false;
  bool degraded_ = false;
  std::shared_ptr<const core::CholeskyPlan> plan_;
  std::unique_ptr<core::CholeskyExecutor> executor_;
  std::vector<value_t> panels_;
  std::vector<value_t> tail_;
};

/// One caller of the triangular-solve pipeline: restart() builds a fresh
/// context and solver for (L, beta); solve() is one transient step.
class TrisolveCaller {
 public:
  virtual ~TrisolveCaller() = default;
  virtual void restart(const CscMatrix& l, std::span<const index_t> beta,
                       std::int32_t step) = 0;
  virtual void solve(std::span<value_t> x, std::int32_t step) = 0;
  [[nodiscard]] virtual bool degraded() const = 0;
  [[nodiscard]] virtual CacheStats cache_stats() const = 0;
};

class FacadeTrisolve final : public TrisolveCaller {
 public:
  explicit FacadeTrisolve(api::SolverConfig config) : config_(std::move(config)) {}
  void restart(const CscMatrix& l, std::span<const index_t> beta,
               std::int32_t /*step*/) override {
    solver_.reset();
    if (context_) retired_ += context_->trisolve_cache().stats();
    context_ = std::make_shared<api::SymbolicContext>();
    solver_ = std::make_unique<api::TriangularSolver>(l, beta, config_, context_);
  }
  void solve(std::span<value_t> x, std::int32_t /*step*/) override {
    solver_->solve(x);
  }
  [[nodiscard]] bool degraded() const override {
    return solver_->report().degraded();
  }
  [[nodiscard]] CacheStats cache_stats() const override {
    return context_ ? retired_ + context_->trisolve_cache().stats() : retired_;
  }

 private:
  api::SolverConfig config_;
  CacheStats retired_;
  std::shared_ptr<api::SymbolicContext> context_;
  std::unique_ptr<api::TriangularSolver> solver_;
};

class TracedTrisolve final : public TrisolveCaller {
 public:
  TracedTrisolve(Tracer& tracer, LayerLog& log, api::SolverConfig config)
      : tracer_(tracer),
        log_(log),
        config_(std::move(config)),
        planner_(config_.planner_config()) {}

  void restart(const CscMatrix& l, std::span<const index_t> beta,
               std::int32_t step) override {
    executor_.reset();
    if (context_) retired_ += context_->trisolve_cache().stats();
    context_ = std::make_shared<api::SymbolicContext>();
    const core::SympilerOptions& opt = config_.options;
    {
      const Tracer::Scope s(&tracer_, "api.validate", step);
      if (opt.validate_input) api::validate_trisolve_input(l, beta, opt.scan_values);
    }
    core::PatternKey key;
    {
      const Tracer::Scope s(&tracer_, "pattern_key.hash", step);
      key = planner_.trisolve_key(l, beta);
    }
    core::TriSolveCache::Lookup lookup;
    {
      const Tracer::Scope s(&tracer_, "symbolic_cache.lookup", step);
      lookup = context_->trisolve_cache().get_or_build(key, [&] {
        const Tracer::Scope p(&tracer_, "planner.plan", step);
        core::TriSolvePlan plan = planner_.plan_trisolve(l, beta);
        log_.phases.push_back(plan.evidence.phases);
        return plan;
      });
    }
    const Tracer::Scope s(&tracer_, "executor.prepare", step);
    executor_ = std::make_unique<core::TriSolveExecutor>(std::move(lookup.plan), l);
  }
  void solve(std::span<value_t> x, std::int32_t step) override {
    {
      const Tracer::Scope s(&tracer_, "executor.trisolve", step);
      executor_->solve(x);
    }
    log_.flops += executor_->sets().flops;
  }
  [[nodiscard]] bool degraded() const override { return false; }
  [[nodiscard]] CacheStats cache_stats() const override {
    return context_ ? retired_ + context_->trisolve_cache().stats() : retired_;
  }

 private:
  Tracer& tracer_;
  LayerLog& log_;
  api::SolverConfig config_;
  core::Planner planner_;
  CacheStats retired_;
  std::shared_ptr<api::SymbolicContext> context_;
  std::unique_ptr<core::TriSolveExecutor> executor_;
};

// ---------------------------------------------------------------- sequences

/// Step inputs of the Cholesky workloads. Step 0 of a block is its set-up
/// (the first solution on a fresh context).
class CholeskySequence {
 public:
  virtual ~CholeskySequence() = default;
  virtual void reset() {}
  [[nodiscard]] virtual const CscMatrix& matrix(std::size_t k) = 0;
  virtual void rhs(std::size_t k, std::vector<value_t>& b) = 0;
  virtual void after(const std::vector<value_t>& /*x*/) {}
};

class NewtonSequence final : public CholeskySequence {
 public:
  explicit NewtonSequence(const NewtonInputs& in) : in_(in), a_(in.base) { reset(); }
  void reset() override { state_ = in_.state0; }
  const CscMatrix& matrix(std::size_t /*k*/) override {
    in_.reassemble(state_, a_);
    return a_;
  }
  void rhs(std::size_t k, std::vector<value_t>& b) override {
    b = in_.rhs[k % in_.rhs.size()];
  }
  void after(const std::vector<value_t>& x) override {
    NewtonInputs::advance(state_, x);
  }

 private:
  const NewtonInputs& in_;
  CscMatrix a_;
  std::vector<value_t> state_;
};

/// pattern_churn: step 0 solves the rank-1 pattern, step k >= 1 visits
/// visits[k - 1]. restart_store: step k solves visits[k] (whole-family
/// permutations back to back, one per restart).
class FamilySequence final : public CholeskySequence {
 public:
  FamilySequence(const FamilyInputs& in, bool setup_step) : in_(in), setup_step_(setup_step) {}
  [[nodiscard]] std::size_t pattern(std::size_t k) const {
    if (setup_step_) return k == 0 ? 0 : in_.visits[(k - 1) % in_.visits.size()];
    return in_.visits[k % in_.visits.size()];
  }
  const CscMatrix& matrix(std::size_t k) override { return in_.matrices[pattern(k)]; }
  void rhs(std::size_t k, std::vector<value_t>& b) override {
    // restart_store visits the family in a fixed order: rotate the RHS per
    // restart, not per step, or each pattern would always get the same one.
    b = in_.rhs_for(pattern(k), setup_step_ ? k : k / in_.matrices.size());
  }

 private:
  const FamilyInputs& in_;
  bool setup_step_;
};

/// Samples and outcomes of a sequence of timed steps.
struct Samples {
  std::vector<double> steps;
  std::vector<double> stamps;  ///< loop clock at the end of each step
  std::vector<double> setups;
  std::vector<double> backward_errors;  ///< of the first checked steps
  Tally tally;
  std::vector<std::uint64_t> digests;

  void note_backward_error(double be) {
    tally.max_backward_error = std::max(tally.max_backward_error, be);
    if (backward_errors.size() < kBackwardErrorSteps) backward_errors.push_back(be);
  }
};

/// One timed Cholesky step: inputs and checks outside the timed region.
/// Returns the step's seconds, or a negative value when it failed.
double cholesky_step(CholeskyCaller& caller, CholeskySequence& seq, std::size_t k,
                     Tracer* tracer, Samples& out, std::vector<value_t>& b,
                     std::vector<value_t>& x, bool keep_digest) {
  const CscMatrix& a = seq.matrix(k);
  seq.rhs(k, b);
  x = b;
  ++out.tally.attempted;
  double seconds = 0.0;
  try {
    const Tracer::Scope root(tracer, "step", static_cast<std::int32_t>(k));
    const Timer timer;
    caller.factor_solve(a, x, static_cast<std::int32_t>(k));
    seconds = timer.seconds();
  } catch (const std::exception& e) {
    out.tally.fail(e.what());
    return -1.0;
  }
  if (caller.degraded()) ++out.tally.degraded;
  const double be = backward_error(
      sympiler::residual_inf_norm_symmetric_lower(a, x, b), sym_inf_norm(a), x, b);
  out.note_backward_error(be);
  if (!(be <= kBackwardErrorTolerance)) {
    out.tally.fail("step " + std::to_string(k) + ": backward error " + std::to_string(be));
    return -1.0;
  }
  if (keep_digest) out.digests.push_back(digest(x));
  seq.after(x);
  return seconds;
}

/// Fresh set-up (new context) plus the first solution of step 0.
void cholesky_setup(CholeskyCaller& caller, CholeskySequence& seq, Tracer* tracer,
                    Samples& out, std::vector<value_t>& b, std::vector<value_t>& x,
                    bool keep_digest) {
  seq.reset();
  const Timer timer;
  caller.restart();
  const double restart_s = timer.seconds();
  const double s = cholesky_step(caller, seq, 0, tracer, out, b, x, keep_digest);
  if (s >= 0.0) out.setups.push_back(restart_s + s);
}

/// A restart of restart_store: fresh context, then one solution of every
/// pattern; each is a step, their sum (plus the restart) a set-up.
void restart_round(CholeskyCaller& caller, FamilySequence& seq, std::size_t first,
                   std::size_t count, Tracer* tracer, Samples& out,
                   std::vector<value_t>& b, std::vector<value_t>& x, bool keep_digest) {
  const Timer timer;
  caller.restart();
  double total = timer.seconds();
  bool ok = true;
  for (std::size_t i = 0; i < count; ++i) {
    const double s = cholesky_step(caller, seq, first + i, tracer, out, b, x, keep_digest);
    if (s < 0.0) {
      ok = false;
      continue;
    }
    out.steps.push_back(s);
    total += s;
  }
  if (ok) out.setups.push_back(total);
}

double trisolve_step(TrisolveCaller& caller, const TrisolveInputs& in, double l_norm,
                     std::size_t k, Tracer* tracer, Samples& out,
                     std::vector<value_t>& b, std::vector<value_t>& x,
                     bool keep_digest, const CscMatrix* setup_l) {
  in.fill_rhs(k, b);
  x = b;
  ++out.tally.attempted;
  double seconds = 0.0;
  try {
    const Tracer::Scope root(tracer, "step", static_cast<std::int32_t>(k));
    const Timer timer;
    if (setup_l != nullptr) caller.restart(*setup_l, in.beta, static_cast<std::int32_t>(k));
    caller.solve(x, static_cast<std::int32_t>(k));
    seconds = timer.seconds();
  } catch (const std::exception& e) {
    out.tally.fail(e.what());
    return -1.0;
  }
  if (caller.degraded()) ++out.tally.degraded;
  const double be = backward_error(sympiler::residual_inf_norm(in.l, x, b), l_norm, x, b);
  out.note_backward_error(be);
  if (!(be <= kBackwardErrorTolerance)) {
    out.tally.fail("step " + std::to_string(k) + ": backward error " + std::to_string(be));
    return -1.0;
  }
  if (keep_digest) out.digests.push_back(digest(x));
  return seconds;
}

/// Step metrics of a run, per window, as trimmed means over the windows.
struct Windows {
  double p50 = 0.0;
  double p90 = 0.0;
  double steps_per_s = 0.0;
  std::size_t count = 0;
  std::size_t min_steps = 0;
  std::size_t min_beyond = 0;
  std::string p50_list;  ///< per-window p50 in ms, for the detail record
};

/// Cut the steps into consecutive windows of >= kWindowSeconds of loop time
/// and enough steps for a p90 with 10 samples beyond it (a short tail joins
/// the last window); per window take p50, p90 and steps / summed step time.
Windows windows_of(const std::vector<double>& steps, const std::vector<double>& stamps) {
  const std::size_t min_steps = samples_needed(0.9, 10);
  std::vector<std::pair<std::size_t, std::size_t>> cuts;  // [begin, end)
  std::size_t begin = 0;
  double start = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i + 1 - begin >= min_steps && stamps[i] - start >= kWindowSeconds) {
      cuts.emplace_back(begin, i + 1);
      begin = i + 1;
      start = stamps[i];
    }
  }
  if (begin < steps.size()) {
    if (cuts.empty()) cuts.emplace_back(begin, steps.size());
    else cuts.back().second = steps.size();
  }
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> rate;
  Windows w;
  w.min_steps = steps.size();
  w.min_beyond = steps.size();
  for (const auto& [b, e] : cuts) {
    const std::vector<double> win(steps.begin() + static_cast<std::ptrdiff_t>(b),
                                  steps.begin() + static_cast<std::ptrdiff_t>(e));
    double total = 0.0;
    for (const double t : win) total += t;
    const Percentile q90 = percentile(win, 0.9, 10);
    p50.push_back(percentile(win, 0.5).value);
    p90.push_back(q90.value);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", w.p50_list.empty() ? "" : " ", p50.back() * 1e3);
    w.p50_list += buf;
    rate.push_back(static_cast<double>(win.size()) / total);
    w.min_steps = std::min(w.min_steps, win.size());
    w.min_beyond = std::min(w.min_beyond, q90.beyond);
  }
  w.count = cuts.size();
  w.p50 = trimmed_mean(p50, kWindowTrim);
  w.p90 = trimmed_mean(p90, kWindowTrim);
  w.steps_per_s = trimmed_mean(rate, kWindowTrim);
  return w;
}

// ------------------------------------------------------------------ census

/// Plans of the workload's distinct patterns, built directly by the
/// Planner outside any timed region: exact sizes, paths and work counts.
struct Census {
  double plan_bytes = 0.0;
  double serialized_bytes = 0.0;
  double flops = 0.0;           ///< one step on every distinct pattern
  double computed_bytes = 0.0;  ///< bytes moved, computed from array sizes
  double barriers = 0.0;
  double tasks = 0.0;
  double bundles = 0.0;
  double schedule_bytes = 0.0;
  std::map<std::string, std::int64_t> paths;
  int primary_parallel = -1;  ///< first pattern with a parallel plan
  JsonObject patterns;        ///< name -> "path, plan MiB"
};

void census_add(Census& c, const core::CholeskyPlan& plan, const CscMatrix& a,
                 const std::string& name) {
  char desc[96];
  std::snprintf(desc, sizeof(desc), "%s, %.3f MiB", core::to_string(plan.path),
                static_cast<double>(plan.bytes()) / kMiB);
  c.patterns.str(name, desc);
  const double nnz_l = static_cast<double>(plan.sets.sym.fill_nnz);
  const double n = static_cast<double>(a.cols());
  c.plan_bytes += static_cast<double>(plan.bytes());
  c.serialized_bytes += static_cast<double>(core::serialize_plan(plan).size());
  c.flops += plan.sets.flops() + 4.0 * nnz_l;
  // Factor reads A and writes L; the two solves read L; values + indices.
  c.computed_bytes += 12.0 * a.nnz() + 12.0 * nnz_l + 24.0 * nnz_l + 16.0 * n;
  c.barriers += plan.evidence.agg_levels;
  c.tasks += plan.evidence.agg_tasks;
  c.bundles += plan.evidence.agg_bundles;
  c.schedule_bytes += static_cast<double>(plan.schedule.bytes() + plan.agg.bytes() +
                                          plan.solve_update_map.bytes());
  ++c.paths[core::to_string(plan.path)];
}

Census census_of(const Inputs& in, const core::Planner& planner) {
  Census c;
  switch (in.workload) {
    case Workload::kNewtonMesh: {
      const core::CholeskyPlan plan = planner.plan_cholesky(in.newton.base);
      census_add(c, plan, in.newton.base, "grid2d_100_nd");
      if (plan.path == core::ExecutionPath::ParallelSupernodal) c.primary_parallel = 0;
      break;
    }
    case Workload::kTransientTrisolve: {
      const core::TriSolvePlan plan = planner.plan_trisolve(in.trisolve.l, in.trisolve.beta);
      c.plan_bytes = static_cast<double>(plan.bytes());
      c.serialized_bytes = static_cast<double>(core::serialize_plan(plan).size());
      c.flops = plan.sets.flops;
      double reach_nnz = 0.0;
      for (const index_t j : plan.sets.reach)
        reach_nnz += static_cast<double>(plan.sets.colcount[static_cast<std::size_t>(j)]);
      c.computed_bytes = 12.0 * reach_nnz + 16.0 * static_cast<double>(plan.sets.reach.size());
      c.barriers = plan.evidence.agg_levels;
      c.tasks = plan.evidence.agg_tasks;
      c.bundles = plan.evidence.agg_bundles;
      c.schedule_bytes = static_cast<double>(plan.schedule.bytes() + plan.agg.bytes() +
                                             plan.update_map.bytes());
      ++c.paths[core::to_string(plan.path)];
      break;
    }
    case Workload::kPatternChurn:
    case Workload::kRestartStore:
      for (std::size_t p = 0; p < in.family.matrices.size(); ++p) {
        const core::CholeskyPlan plan = planner.plan_cholesky(in.family.matrices[p]);
        census_add(c, plan, in.family.matrices[p], in.family.names[p]);
        if (c.primary_parallel < 0 && plan.path == core::ExecutionPath::ParallelSupernodal)
          c.primary_parallel = static_cast<int>(p);
      }
      break;
  }
  return c;
}

double dir_bytes(const std::string& dir) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec))
    if (e.is_regular_file(ec) && e.path().extension() == ".plan")
      total += static_cast<double>(e.file_size(ec));
  return total;
}

/// Start the peak-resident-set count afresh once the inputs are built:
/// hand the pages freed by input generation and the census back to the
/// kernel, then reset VmHWM to the current resident set (writing "5" to
/// /proc/self/clear_refs). The peak then covers the program's own memory
/// plus the live inputs it was given. Returns false where the kernel does
/// not allow the reset; the peak then dates from process start.
bool reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Peak resident set in MiB: VmHWM of /proc/self/status (what
/// reset_peak_rss resets), else getrusage's lifetime maximum.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) * 1024.0 / kMiB;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;  // KiB on Linux
}

/// Threads of the next parallel region (OMP_NUM_THREADS; 1 without OpenMP).
int max_threads() {
#ifdef SYMPILER_HAS_OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_threads(int threads) {
#ifdef SYMPILER_HAS_OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

// ------------------------------------------------------------ the workload

/// Everything a run of one workload needs, end to end or traced.
class Runner {
 public:
  Runner(const RunConfig& cfg, const Inputs& in)
      : cfg_(cfg), in_(in), tracer_(cfg.trace ? kTracerCapacity : 0) {
    if (in.workload == Workload::kPatternChurn) {
      budget_ = kChurnBudgetBytes;
      shards_ = kChurnShards;
    }
    if (in.workload == Workload::kRestartStore) {
      store_dir_ = (fs::path(cfg.scratch_dir) / "store").string();
      fs::remove_all(store_dir_);
      fs::create_directories(store_dir_);
      config_.options.plan_store_dir = store_dir_;
      // The store registry holds weak handles; keep this one alive so its
      // counters span the whole run.
      store_ = core::PlanStore::open(store_dir_);
    }
    if (in.workload == Workload::kTransientTrisolve) l_norm_ = inf_norm(in.trisolve.l);
  }

  Result run() {
    const core::Planner planner(config_.planner_config());
    census_ = census_of(in_, planner);
    peak_rss_reset_ = reset_peak_rss();
    warm_up();
    Result r = cfg_.trace ? run_traced() : run_end_to_end();
    JsonObject paths;
    for (const auto& [path, count] : census_.paths) paths.integer(path, count);
    r.detail.obj("plan_paths", paths);
    r.detail.obj("patterns", census_.patterns);
    return r;
  }

 private:
  [[nodiscard]] bool cholesky() const {
    return in_.workload != Workload::kTransientTrisolve;
  }

  std::unique_ptr<CholeskySequence> sequence() const {
    switch (in_.workload) {
      case Workload::kNewtonMesh: return std::make_unique<NewtonSequence>(in_.newton);
      case Workload::kPatternChurn: return std::make_unique<FamilySequence>(in_.family, true);
      case Workload::kRestartStore: return std::make_unique<FamilySequence>(in_.family, false);
      case Workload::kTransientTrisolve: break;
    }
    return nullptr;
  }

  /// Run the workload's own steps, unmeasured, on a throwaway context
  /// without a plan store.
  void warm_up() {
    api::SolverConfig config = config_;
    config.options.plan_store_dir.clear();
    Samples s;
    std::vector<value_t> b;
    std::vector<value_t> x;
    const Timer clock;
    if (in_.workload == Workload::kTransientTrisolve) {
      FacadeTrisolve caller(config);
      trisolve_step(caller, in_.trisolve, l_norm_, 0, nullptr, s, b, x, false, &in_.trisolve.l);
      for (std::size_t k = 1; clock.seconds() < kWarmUpSeconds; ++k)
        trisolve_step(caller, in_.trisolve, l_norm_, k, nullptr, s, b, x, false, nullptr);
      return;
    }
    FacadeCholesky caller(config, budget_, shards_);
    auto seq = sequence();
    while (clock.seconds() < kWarmUpSeconds) {
      cholesky_setup(caller, *seq, nullptr, s, b, x, false);
      for (std::size_t k = 1; k < 50 && clock.seconds() < kWarmUpSeconds; ++k)
        cholesky_step(caller, *seq, k, nullptr, s, b, x, false);
    }
  }

  /// Untimed prologue of restart_store: plan the family once through the
  /// caller and flush the write-behind queue, so every restart finds the
  /// store populated.
  void populate_store(CholeskyCaller& caller) {
    std::vector<value_t> x;
    caller.restart();
    for (std::size_t p = 0; p < in_.family.matrices.size(); ++p) {
      const CscMatrix& a = in_.family.matrices[p];
      x = in_.family.rhs_for(p, 0);
      caller.factor_solve(a, x, -1);
    }
    store_->flush();
  }

  // ---------------------------------------------------------- end to end

  /// Steps until `seconds` of wall time have passed and enough steps were
  /// attempted for a p90 with 10 samples beyond it and for the
  /// backward_error set. Counting attempts, not successes, ends the loop
  /// even when every step fails.
  [[nodiscard]] bool more(const Timer& clock, std::int64_t attempted) const {
    const auto steps = static_cast<std::size_t>(attempted);
    return clock.seconds() < cfg_.seconds || steps < samples_needed(0.9, 10) ||
           steps < kBackwardErrorSteps;
  }

  /// The end-to-end loop. Besides the loop caller's own first solution,
  /// a second caller makes one fresh set-up per kWindowSeconds of loop
  /// time, so set-up samples span the run as the step windows do.
  Samples end_to_end_samples(CacheStats& loop_cache) {
    Samples s;
    Samples su;  // set-ups: checked, but kept out of the backward_error set
    std::vector<value_t> b;
    std::vector<value_t> x;
    double next_setup = kWindowSeconds;
    if (in_.workload == Workload::kTransientTrisolve) {
      FacadeTrisolve caller(config_);
      FacadeTrisolve setup_caller(config_);
      auto setup = [&](TrisolveCaller& c) {
        const double t = trisolve_step(c, in_.trisolve, l_norm_, 0, nullptr, su, b, x,
                                       false, &in_.trisolve.l);
        if (t >= 0.0) su.setups.push_back(t);
      };
      setup(caller);
      const CacheStats before = caller.cache_stats();
      const Timer clock;
      for (std::size_t k = 1; more(clock, s.tally.attempted); ++k) {
        const double t = trisolve_step(caller, in_.trisolve, l_norm_, k, nullptr, s, b, x,
                                       false, nullptr);
        if (t >= 0.0) {
          s.steps.push_back(t);
          s.stamps.push_back(clock.seconds());
        }
        if (clock.seconds() >= next_setup) {
          setup(setup_caller);
          next_setup += kWindowSeconds;
        }
      }
      loop_cache = minus(caller.cache_stats(), before);
      while (su.tally.attempted < std::int64_t{kMinSetups}) setup(setup_caller);
    } else if (in_.workload == Workload::kRestartStore) {
      FacadeCholesky caller(config_, budget_, shards_);
      FamilySequence seq(in_.family, false);
      populate_store(caller);
      store_before_ = store_->stats();
      const CacheStats before = caller.cache_stats();
      const std::size_t family = in_.family.matrices.size();
      const Timer clock;
      for (std::size_t r = 0; more(clock, s.tally.attempted) || r < kMinSetups;
           ++r) {
        restart_round(caller, seq, r * family, family, nullptr, s, b, x, false);
        s.stamps.resize(s.steps.size(), clock.seconds());
      }
      loop_cache = minus(caller.cache_stats(), before);
      return s;
    } else {
      FacadeCholesky caller(config_, budget_, shards_);
      FacadeCholesky setup_caller(config_, budget_, shards_);
      auto seq = sequence();
      auto setup_seq = sequence();
      std::vector<value_t> sb;
      std::vector<value_t> sx;
      cholesky_setup(caller, *seq, nullptr, su, b, x, false);
      const CacheStats before = caller.cache_stats();
      const Timer clock;
      for (std::size_t k = 1; more(clock, s.tally.attempted); ++k) {
        const double t = cholesky_step(caller, *seq, k, nullptr, s, b, x, false);
        if (t >= 0.0) {
          s.steps.push_back(t);
          s.stamps.push_back(clock.seconds());
        }
        if (clock.seconds() >= next_setup) {
          cholesky_setup(setup_caller, *setup_seq, nullptr, su, sb, sx, false);
          next_setup += kWindowSeconds;
        }
      }
      loop_cache = minus(caller.cache_stats(), before);
      while (su.tally.attempted < std::int64_t{kMinSetups})
        cholesky_setup(setup_caller, *setup_seq, nullptr, su, sb, sx, false);
    }
    s.setups = su.setups;
    s.tally.merge(su.tally);
    return s;
  }

  Result run_end_to_end() {
    const std::uint64_t transposes0 = core::planner_transpose_count();
    const std::uint64_t schedules0 = sympiler::parallel::level_schedule_builds();
    CacheStats loop_cache;
    const Samples s = end_to_end_samples(loop_cache);
    Result r;
    r.attempted = s.tally.attempted;
    r.failed = s.tally.failed;
    r.correct = s.tally.failed == 0;
    if (s.steps.empty() || s.setups.empty())
      throw std::runtime_error("no step completed: " +
                               (s.tally.errors.empty() ? std::string("?") : s.tally.errors[0]));
    const Windows w = windows_of(s.steps, s.stamps);
    const double store_bytes =
        in_.workload == Workload::kRestartStore ? dir_bytes(store_dir_) : census_.serialized_bytes;
    r.add("setup_s", median_of(s.setups), "s");
    r.add("steps_per_s", w.steps_per_s, "1/s");
    r.add("step_p50_s", w.p50, "s");
    r.add("step_p90_s", w.p90, "s");
    r.add("plan_mib", census_.plan_bytes / kMiB, "MiB");
    r.add("store_mib", store_bytes / kMiB, "MiB");
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    double log_sum = 0.0;
    for (const double be : s.backward_errors)
      log_sum += std::log(std::max(be, kBackwardErrorFloor));
    r.add("backward_error",
          std::exp(log_sum / static_cast<double>(s.backward_errors.size())), "1");

    JsonObject samples;
    samples.integer("steps", static_cast<std::int64_t>(s.steps.size()))
        .integer("windows", static_cast<std::int64_t>(w.count))
        .integer("min_window_steps", static_cast<std::int64_t>(w.min_steps))
        .integer("min_window_beyond_p90", static_cast<std::int64_t>(w.min_beyond))
        .str("window_p50_ms", w.p50_list)
        .integer("setups", static_cast<std::int64_t>(s.setups.size()))
        .integer("backward_error_steps", static_cast<std::int64_t>(s.backward_errors.size()));
    r.detail.obj("samples", samples);
    r.detail.str("peak_rss_since", peak_rss_reset_ ? "inputs built" : "process start");
    JsonObject cov;
    cov.integer("loop_cache_lookups", static_cast<std::int64_t>(loop_cache.lookups()))
        .integer("loop_cache_hits", static_cast<std::int64_t>(loop_cache.hits))
        .integer("loop_cache_evictions", static_cast<std::int64_t>(loop_cache.evictions))
        .integer("planner_transposes",
                 static_cast<std::int64_t>(core::planner_transpose_count() - transposes0))
        .integer("level_schedule_builds",
                 static_cast<std::int64_t>(sympiler::parallel::level_schedule_builds() -
                                           schedules0))
        .integer("degraded_ops", s.tally.degraded);
    if (in_.workload == Workload::kRestartStore) {
      const core::PlanStore::Stats st = store_->stats();
      cov.integer("store_loads", static_cast<std::int64_t>(st.loads - store_before_.loads))
          .integer("store_declines",
                   static_cast<std::int64_t>(st.declines - store_before_.declines))
          .integer("store_writes", static_cast<std::int64_t>(st.writes - store_before_.writes));
    } else {
      cov.integer("store_loads", 0);
    }
    r.detail.obj("coverage", cov);
    r.detail.obj("checks", checks_json(s.tally));
    return r;
  }

  static JsonObject checks_json(const Tally& t) {
    JsonObject c;
    c.num("backward_error_tolerance", kBackwardErrorTolerance)
        .num("max_backward_error", t.max_backward_error)
        .integer("failed", t.failed);
    for (std::size_t i = 0; i < t.errors.size(); ++i)
      c.str("error_" + std::to_string(i), t.errors[i]);
    return c;
  }

  // -------------------------------------------------------------- traced

  /// Counters read around a block.
  struct Counters {
    CacheStats cache;
    core::PlanStore::Stats store;
    std::uint64_t transposes = 0;
    std::uint64_t schedules = 0;
  };
  Counters counters(const CacheStats& cache) const {
    Counters c;
    c.cache = cache;
    if (!store_dir_.empty()) c.store = store_->stats();
    c.transposes = core::planner_transpose_count();
    c.schedules = sympiler::parallel::level_schedule_builds();
    return c;
  }

  /// What one block did, from the counters the library keeps.
  struct Delta {
    CacheStats cache;
    std::int64_t loads = 0;          ///< store loads that passed the CRCs
    std::int64_t load_failures = 0;  ///< files found but rejected
    std::int64_t rejections = 0;     ///< loads that failed re-verification
    std::int64_t declines = 0;
    std::int64_t transposes = 0;
    std::int64_t schedules = 0;

    /// Misses not served by a verified load were planned.
    [[nodiscard]] std::int64_t builds() const {
      return static_cast<std::int64_t>(cache.misses) - (loads - rejections);
    }
    [[nodiscard]] JsonObject json() const {
      JsonObject o;
      o.integer("lookups", static_cast<std::int64_t>(cache.lookups()))
          .integer("hits", static_cast<std::int64_t>(cache.hits))
          .integer("misses", static_cast<std::int64_t>(cache.misses))
          .integer("evictions", static_cast<std::int64_t>(cache.evictions))
          .integer("builds", builds())
          .integer("store_loads", loads)
          .integer("store_load_failures", load_failures)
          .integer("store_declines", declines)
          .integer("transposes", transposes)
          .integer("schedule_builds", schedules);
      return o;
    }
  };
  static Delta delta(const Counters& a, const Counters& b) {
    auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<std::int64_t>(y - x); };
    Delta r;
    r.cache = minus(b.cache, a.cache);
    r.loads = d(a.store.loads, b.store.loads);
    r.load_failures = d(a.store.load_failures, b.store.load_failures);
    // Every rejected file is discarded: CRC failures and re-verification
    // failures alike.
    r.rejections = d(a.store.discards, b.store.discards) - r.load_failures;
    r.declines = d(a.store.declines, b.store.declines);
    r.transposes = d(a.transposes, b.transposes);
    r.schedules = d(a.schedules, b.schedules);
    return r;
  }

  /// One block: a fresh set-up plus a fixed number of steps (restart_store:
  /// a fixed number of restarts). Step samples exclude the set-up, except
  /// on restart_store, where every step is a first solution.
  void cholesky_block(CholeskyCaller& caller, Tracer* tracer, Samples& s, bool keep_digest) {
    std::vector<value_t> b;
    std::vector<value_t> x;
    auto seq = sequence();
    if (in_.workload == Workload::kRestartStore) {
      auto& fseq = static_cast<FamilySequence&>(*seq);
      const std::size_t family = in_.family.matrices.size();
      for (std::size_t r = 0; r < kRestartBlockRestarts; ++r)
        restart_round(caller, fseq, r * family, family, tracer, s, b, x, keep_digest);
      return;
    }
    cholesky_setup(caller, *seq, tracer, s, b, x, keep_digest);
    const std::size_t steps =
        in_.workload == Workload::kNewtonMesh ? kNewtonBlockSteps : kChurnBlockSteps;
    for (std::size_t k = 1; k <= steps; ++k) {
      const double t = cholesky_step(caller, *seq, k, tracer, s, b, x, keep_digest);
      if (t >= 0.0) s.steps.push_back(t);
    }
  }

  void trisolve_block(TrisolveCaller& caller, Tracer* tracer, Samples& s, bool keep_digest) {
    std::vector<value_t> b;
    std::vector<value_t> x;
    const double t0 = trisolve_step(caller, in_.trisolve, l_norm_, 0, tracer, s, b, x,
                                    keep_digest, &in_.trisolve.l);
    if (t0 >= 0.0) s.setups.push_back(t0);
    for (std::size_t k = 1; k <= kTrisolveBlockSteps; ++k) {
      const double t = trisolve_step(caller, in_.trisolve, l_norm_, k, tracer, s, b, x,
                                     keep_digest, nullptr);
      if (t >= 0.0) s.steps.push_back(t);
    }
  }

  Result run_traced();
  void extras(Result& r, JsonObject& skipped, bool& identical, double facade_p50);

  const RunConfig& cfg_;
  const Inputs& in_;
  api::SolverConfig config_;
  std::size_t budget_ = core::CholeskyCache::kDefaultByteBudget;
  std::size_t shards_ = core::CholeskyCache::kDefaultShards;
  std::string store_dir_;
  std::shared_ptr<core::PlanStore> store_;
  core::PlanStore::Stats store_before_;
  double l_norm_ = 0.0;
  bool peak_rss_reset_ = false;
  Census census_;
  Tracer tracer_;
  LayerLog log_;
};

double median_or_zero(const std::map<std::string, std::vector<double>>& by_name,
                      const char* name) {
  const auto it = by_name.find(name);
  return it == by_name.end() || it->second.empty() ? 0.0 : median_of(it->second);
}

double phase_median(const std::vector<core::PlanPhaseTimes>& phases,
                    double core::PlanPhaseTimes::*field) {
  std::vector<double> v;
  for (const auto& p : phases) v.push_back(p.*field);
  return v.empty() ? 0.0 : median_of(v);
}

Result Runner::run_traced() {
  Samples untraced;
  Samples traced;
  Samples first_untraced;
  Samples first_traced;
  Counters facade_before;
  Counters facade_after;
  Counters traced_before;
  Counters traced_after;
  std::size_t first_span_end = 0;
  int blocks = 0;

  std::unique_ptr<CholeskyCaller> facade_chol;
  std::unique_ptr<CholeskyCaller> traced_chol;
  std::unique_ptr<TrisolveCaller> facade_tri;
  std::unique_ptr<TrisolveCaller> traced_tri;
  if (cholesky()) {
    facade_chol = std::make_unique<FacadeCholesky>(config_, budget_, shards_);
    traced_chol = std::make_unique<TracedCholesky>(tracer_, log_, config_, budget_, shards_);
  } else {
    facade_tri = std::make_unique<FacadeTrisolve>(config_);
    traced_tri = std::make_unique<TracedTrisolve>(tracer_, log_, config_);
  }
  auto facade_cache = [&] {
    return cholesky() ? facade_chol->cache_stats() : facade_tri->cache_stats();
  };
  auto traced_cache = [&] {
    return cholesky() ? traced_chol->cache_stats() : traced_tri->cache_stats();
  };
  if (in_.workload == Workload::kRestartStore) populate_store(*traced_chol);
  // The store prologue is traced for its saves only; every other per-layer
  // figure covers the blocks.
  const std::size_t prologue_spans = tracer_.spans().size();
  const std::size_t prologue_plans = log_.phases.size();

  const Timer clock;
  while (blocks < kMinBlocks || clock.seconds() < cfg_.seconds) {
    const bool first = blocks == 0;
    Samples u;
    Samples t;
    if (first) facade_before = counters(facade_cache());
    if (cholesky()) cholesky_block(*facade_chol, nullptr, u, first);
    else trisolve_block(*facade_tri, nullptr, u, first);
    if (first) {
      facade_after = counters(facade_cache());
      traced_before = counters(traced_cache());
    }
    if (cholesky()) cholesky_block(*traced_chol, &tracer_, t, first);
    else trisolve_block(*traced_tri, &tracer_, t, first);
    if (first) traced_after = counters(traced_cache());
    if (first) {
      first_untraced = u;
      first_traced = t;
      first_span_end = tracer_.spans().size();
    }
    for (Samples* dst : {&untraced, &traced}) {
      const Samples& src = dst == &untraced ? u : t;
      dst->steps.insert(dst->steps.end(), src.steps.begin(), src.steps.end());
      dst->setups.insert(dst->setups.end(), src.setups.begin(), src.setups.end());
      dst->tally.merge(src.tally);
    }
    ++blocks;
  }
  bool identical = !first_untraced.digests.empty() &&
                   first_untraced.digests == first_traced.digests;

  // Per-layer times from every traced block; counts from the first one.
  std::vector<Span> spans(tracer_.spans().begin() + static_cast<std::ptrdiff_t>(prologue_spans),
                          tracer_.spans().end());
  for (Span& sp : spans) sp.parent = sp.parent < 0 ? -1 : sp.parent - static_cast<std::int32_t>(prologue_spans);
  const auto by_name = self_seconds_by_name(spans);
  const std::vector<core::PlanPhaseTimes> phases(
      log_.phases.begin() + static_cast<std::ptrdiff_t>(prologue_plans), log_.phases.end());
  std::map<std::string, std::int64_t> first_counts;
  for (std::size_t i = 0; i + prologue_spans < first_span_end; ++i)
    ++first_counts[spans[i].name];
  auto count = [&](const char* name) {
    const auto it = first_counts.find(name);
    return static_cast<double>(it == first_counts.end() ? 0 : it->second);
  };

  // The cache, planner and store counts are the facade's own, read around
  // its first block; the traced block must reproduce them, or its spans
  // time a call sequence the facade no longer makes. pattern_churn's hits,
  // misses and builds depend on eviction timing and may differ.
  const Delta fc = delta(facade_before, facade_after);
  const Delta tc = delta(traced_before, traced_after);
  const bool churn = in_.workload == Workload::kPatternChurn;
  const bool counts_match =
      fc.cache.lookups() == tc.cache.lookups() && fc.loads == tc.loads &&
      fc.declines == tc.declines && fc.rejections == tc.rejections &&
      static_cast<double>(fc.loads) == count("verify.verify") &&
      (churn || (fc.cache.hits == tc.cache.hits && fc.cache.misses == tc.cache.misses &&
                 fc.transposes == tc.transposes && fc.schedules == tc.schedules &&
                 static_cast<double>(fc.builds()) == count("planner.plan")));
  // A block's first solutions (its set-up; on restart_store every step)
  // each make one lookup; any other lookup came after them.
  const std::int64_t first_solutions =
      in_.workload == Workload::kRestartStore ? first_untraced.tally.attempted : 1;

  Result r;
  r.attempted = untraced.tally.attempted + traced.tally.attempted;
  r.failed = untraced.tally.failed + traced.tally.failed;

  const double untraced_p50 = median_of(untraced.steps);
  const double traced_p50 = median_of(traced.steps);

  r.add("api.validate_s", median_or_zero(by_name, "api.validate"), "s");
  r.add("api.validations", count("api.validate"), "count");
  r.add("api.degraded_ops", static_cast<double>(untraced.tally.degraded), "count");
  r.add("pattern_key.hash_s", median_or_zero(by_name, "pattern_key.hash"), "s");
  r.add("pattern_key.hashes", count("pattern_key.hash"), "count");

  const CacheStats& cache = fc.cache;
  r.add("symbolic_cache.lookup_s", median_or_zero(by_name, "symbolic_cache.lookup"), "s");
  r.add("symbolic_cache.lookups", static_cast<double>(cache.lookups()), "count");
  r.add("symbolic_cache.later_lookups",
        static_cast<double>(static_cast<std::int64_t>(cache.lookups()) - first_solutions),
        "count");
  r.add("symbolic_cache.hits", static_cast<double>(cache.hits), "count");
  r.add("symbolic_cache.misses", static_cast<double>(cache.misses), "count");
  r.add("symbolic_cache.evictions", static_cast<double>(cache.evictions), "count");
  r.add("symbolic_cache.evicted_mib", static_cast<double>(cache.evicted_bytes) / kMiB, "MiB");
  r.add("symbolic_cache.hit_ratio", minus(facade_cache(), facade_before.cache).hit_rate(), "1");

  r.add("planner.plan_s", median_or_zero(by_name, "planner.plan"), "s");
  r.add("planner.builds", static_cast<double>(fc.builds()), "count");
  r.add("planner.transposes", static_cast<double>(fc.transposes), "count");
  r.add("planner.schedule_builds", static_cast<double>(fc.schedules), "count");
  using P = core::PlanPhaseTimes;
  r.add("planner.transpose_s", phase_median(phases, &P::transpose), "s");
  r.add("planner.etree_s", phase_median(phases, &P::etree), "s");
  r.add("planner.counts_s", phase_median(phases, &P::counts), "s");
  r.add("planner.pattern_s", phase_median(phases, &P::pattern), "s");
  r.add("planner.assemble_s", phase_median(phases, &P::assemble), "s");
  r.add("planner.schedule_s", phase_median(phases, &P::schedule), "s");
  r.add("planner.slotmap_s", phase_median(phases, &P::slotmap), "s");

  r.add("verify.verify_s", median_or_zero(by_name, "verify.verify"), "s");
  r.add("verify.plans", static_cast<double>(fc.loads), "count");
  r.add("verify.rejections", static_cast<double>(fc.rejections), "count");

  const auto loads = static_cast<double>(fc.loads);
  const auto builds = static_cast<double>(fc.builds());
  r.add("plan_store.load_s", median_or_zero(by_name, "plan_store.load"), "s");
  r.add("plan_store.save_s",
        log_.save_write_seconds.empty() ? 0.0 : median_of(log_.save_write_seconds), "s");
  r.add("plan_store.loads", loads, "count");
  r.add("plan_store.load_failures", static_cast<double>(fc.load_failures), "count");
  r.add("plan_store.declines", static_cast<double>(fc.declines), "count");
  r.add("plan_store.load_ratio", loads + builds > 0.0 ? loads / (loads + builds) : 0.0, "1");
  r.add("plan_store.file_mib", store_dir_.empty() ? 0.0 : dir_bytes(store_dir_) / kMiB, "MiB");

  // Executor throughput: flops of the traced executor spans over their
  // self time. flops_per_byte is computed from array sizes, not measured.
  const double factor_s = median_or_zero(by_name, "executor.factor");
  const double solve_s = median_or_zero(by_name, "executor.solve");
  const double trisolve_s = median_or_zero(by_name, "executor.trisolve");
  double exec_busy = 0.0;
  {
    const std::vector<double> self = self_seconds(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      if (name == "executor.factor" || name == "executor.solve" || name == "executor.trisolve")
        exec_busy += self[i];
    }
  }
  r.add("executor.factor_s", factor_s, "s");
  r.add("executor.solve_s", solve_s, "s");
  r.add("executor.trisolve_s", trisolve_s, "s");
  r.add("executor.flops", census_.flops, "flop");
  r.add("executor.gflops", exec_busy > 0.0 ? log_.flops / exec_busy / 1e9 : 0.0, "GF/s");
  r.add("executor.flops_per_byte", census_.flops / census_.computed_bytes, "flop/B");

  r.add("parallel.barriers", census_.barriers, "count");
  r.add("parallel.tasks", census_.tasks, "count");
  r.add("parallel.bundles", census_.bundles, "count");
  r.add("parallel.schedule_mib", census_.schedule_bytes / kMiB, "MiB");

  JsonObject skipped;
  extras(r, skipped, identical, untraced_p50);

  r.add("trace.overhead", traced_p50 / untraced_p50 - 1.0, "1");
  r.add("trace.spans", static_cast<double>(spans.size()), "count");
  r.add("trace.dropped", static_cast<double>(tracer_.dropped()), "count");

  if (!cfg_.trace_path.empty() && !tracer_.write_chrome_json(cfg_.trace_path))
    skipped.str("trace_file", "could not write " + cfg_.trace_path);
  Tally all = untraced.tally;
  all.merge(traced.tally);
  r.correct = r.failed == 0 && identical && counts_match;
  JsonObject checks = checks_json(all);
  checks.boolean("traced_bit_identical", identical)
      .boolean("traced_counts_match_facade", counts_match)
      .obj("facade_counts", fc.json())
      .obj("traced_counts", tc.json());
  r.detail.obj("checks", checks);
  r.detail.obj("skipped", skipped);
  JsonObject samples;
  samples.integer("blocks", blocks)
      .integer("untraced_steps", static_cast<std::int64_t>(untraced.steps.size()))
      .integer("traced_steps", static_cast<std::int64_t>(traced.steps.size()));
  r.detail.obj("samples", samples);
  return r;
}

/// Work only the traced run times, on the same inputs: the parallel plan
/// at 1 thread, the JIT tier, and the library baselines.
void Runner::extras(Result& r, JsonObject& skipped, bool& identical, double facade_p50) {
  const core::Planner planner(config_.planner_config());
  const CscMatrix* chol_input = nullptr;
  CscMatrix newton_a;
  if (in_.workload == Workload::kNewtonMesh) {
    NewtonSequence seq(in_.newton);
    newton_a = seq.matrix(0);
    chol_input = &newton_a;
  } else if (census_.primary_parallel >= 0) {
    chol_input = &in_.family.matrices[static_cast<std::size_t>(census_.primary_parallel)];
  }

  // parallel: the same plan at 1 thread and at the configured count.
  double serial_s = 0.0;
  double speedup = 0.0;
  if (chol_input != nullptr && census_.primary_parallel >= 0) {
    const int threads = max_threads();
    const core::CholeskyPlan plan = planner.plan_cholesky(*chol_input);
    const auto values = static_cast<std::size_t>(plan.sets.layout.total_values());
    std::vector<value_t> one(values);
    std::vector<value_t> many(values);
    std::vector<double> t1;
    std::vector<double> tn;
    for (int rep = 0; rep < 30; ++rep) {
      set_threads(1);
      Timer a;
      sympiler::parallel::parallel_cholesky(plan, *chol_input, one);
      t1.push_back(a.seconds());
      set_threads(threads);
      Timer b;
      sympiler::parallel::parallel_cholesky(plan, *chol_input, many);
      tn.push_back(b.seconds());
    }
    serial_s = median_of(t1);
    speedup = serial_s / median_of(tn);
    if (std::memcmp(one.data(), many.data(), values * sizeof(value_t)) != 0) identical = false;
  } else {
    skipped.str("parallel", "no parallel plan on this workload");
  }
  r.add("parallel.serial_factor_s", serial_s, "s");
  r.add("parallel.speedup", speedup, "1");

  // plan_compiler: the JIT tier on newton_mesh (factor) and
  // transient_trisolve (trisolve); every end-to-end run leaves it off.
  double compile_s = 0.0;
  double jit_trisolve_s = 0.0;
  double trisolve_speedup = 0.0;
  double factor_speedup = 0.0;
  const std::size_t cap = static_cast<std::size_t>(config_.options.jit_max_source_kb) * 1024;
  if (in_.workload == Workload::kNewtonMesh) {
    const core::CholeskyPlan built = planner.plan_cholesky(newton_a);
    auto interp_plan = std::make_shared<core::CholeskyPlan>(built);
    interp_plan->jit = std::make_shared<core::JitSlot>();
    auto jit_plan = std::make_shared<core::CholeskyPlan>(built);
    jit_plan->jit = std::make_shared<core::JitSlot>();
    const Timer ct;
    const bool compiled = core::PlanCompiler::compile(*jit_plan, cap) != nullptr;
    compile_s = ct.seconds();
    if (compiled) {
      core::CholeskyExecutor interp(interp_plan);
      core::CholeskyExecutor jit(jit_plan);
      std::vector<double> ti;
      std::vector<double> tj;
      for (int rep = 0; rep < 20; ++rep) {
        Timer a;
        interp.factorize(newton_a);
        ti.push_back(a.seconds());
        Timer b;
        jit.factorize(newton_a);
        tj.push_back(b.seconds());
      }
      factor_speedup = median_of(ti) / median_of(tj);
      std::vector<value_t> xi = in_.newton.rhs[0];
      std::vector<value_t> xj = in_.newton.rhs[0];
      interp.solve(xi);
      jit.solve(xj);
      if (xi != xj) identical = false;
    } else {
      skipped.str("plan_compiler", "compile failed: " + jit_plan->jit->failure());
      compile_s = 0.0;
    }
  } else if (in_.workload == Workload::kTransientTrisolve) {
    const core::TriSolvePlan built = planner.plan_trisolve(in_.trisolve.l, in_.trisolve.beta);
    auto interp_plan = std::make_shared<core::TriSolvePlan>(built);
    interp_plan->jit = std::make_shared<core::JitSlot>();
    auto jit_plan = std::make_shared<core::TriSolvePlan>(built);
    jit_plan->jit = std::make_shared<core::JitSlot>();
    const Timer ct;
    const bool compiled =
        core::PlanCompiler::compile(*jit_plan, in_.trisolve.l, cap) != nullptr;
    compile_s = ct.seconds();
    if (compiled) {
      const core::TriSolveExecutor interp(interp_plan, in_.trisolve.l);
      const core::TriSolveExecutor jit(jit_plan, in_.trisolve.l);
      std::vector<value_t> b(static_cast<std::size_t>(in_.trisolve.l.cols()));
      std::vector<value_t> xi;
      std::vector<value_t> xj;
      std::vector<double> ti;
      std::vector<double> tj;
      for (std::size_t rep = 0; rep < 400; ++rep) {
        in_.trisolve.fill_rhs(rep, b);
        xi = b;
        xj = b;
        Timer a;
        interp.solve(xi);
        ti.push_back(a.seconds());
        Timer c;
        jit.solve(xj);
        tj.push_back(c.seconds());
        if (xi != xj) identical = false;
      }
      jit_trisolve_s = median_of(tj);
      trisolve_speedup = median_of(ti) / jit_trisolve_s;
    } else {
      skipped.str("plan_compiler", "compile failed: " + jit_plan->jit->failure());
      compile_s = 0.0;
    }
  } else {
    skipped.str("plan_compiler", "the JIT extra runs on newton_mesh and transient_trisolve");
  }
  r.add("plan_compiler.compile_s", compile_s, "s");
  r.add("plan_compiler.trisolve_s", jit_trisolve_s, "s");
  r.add("plan_compiler.trisolve_speedup", trisolve_speedup, "1");
  r.add("plan_compiler.factor_speedup", factor_speedup, "1");

  // solvers: the library-style baselines (paper Figs. 6-7) on the
  // newton_mesh and transient_trisolve inputs, against the facade step.
  double supernodal_s = 0.0;
  double simplicial_s = 0.0;
  double lib_trisolve_s = 0.0;
  if (in_.workload == Workload::kNewtonMesh) {
    sympiler::solvers::SupernodalCholesky supernodal(newton_a);
    sympiler::solvers::SimplicialCholesky simplicial(newton_a);
    std::vector<double> ts;
    std::vector<double> tp;
    std::vector<value_t> x;
    for (int rep = 0; rep < 15; ++rep) {
      x = in_.newton.rhs[0];
      Timer a;
      supernodal.factorize(newton_a);
      supernodal.solve(x);
      ts.push_back(a.seconds());
      x = in_.newton.rhs[0];
      Timer b;
      simplicial.factorize(newton_a);
      simplicial.solve(x);
      tp.push_back(b.seconds());
    }
    supernodal_s = median_of(ts);
    simplicial_s = median_of(tp);
  } else if (in_.workload == Workload::kTransientTrisolve) {
    std::vector<value_t> b(static_cast<std::size_t>(in_.trisolve.l.cols()));
    std::vector<double> tl;
    for (std::size_t rep = 0; rep < 200; ++rep) {
      in_.trisolve.fill_rhs(rep, b);
      Timer a;
      sympiler::solvers::trisolve_library(in_.trisolve.l, b);
      tl.push_back(a.seconds());
    }
    lib_trisolve_s = median_of(tl);
  } else {
    skipped.str("solvers", "baselines run on newton_mesh and transient_trisolve");
  }
  r.add("solvers.supernodal_step_s", supernodal_s, "s");
  r.add("solvers.simplicial_step_s", simplicial_s, "s");
  r.add("solvers.trisolve_step_s", lib_trisolve_s, "s");
  r.add("solvers.speedup_vs_supernodal", supernodal_s / facade_p50, "1");
  r.add("solvers.speedup_vs_simplicial", simplicial_s / facade_p50, "1");
  r.add("solvers.speedup_vs_trisolve", lib_trisolve_s / facade_p50, "1");
}

}  // namespace

void retain_freed_memory() {
#ifdef __GLIBC__
  // glibc before 2.35 caps the threshold at half its 64 MiB heap size.
  if (mallopt(M_MMAP_THRESHOLD, 1 << 30) == 0) mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, -1);  // an unsigned maximum: never trim
#endif
}

Result run_workload(const RunConfig& cfg, const Inputs& in) {
  Runner runner(cfg, in);
  return runner.run();
}

}  // namespace perfbench
