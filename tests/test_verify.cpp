// Tests for the static plan verifier (verify/verify.h).
//
// Three layers:
//  * mutation-kill matrix — verify::PlanMutator seeds every corruption
//    class into plans on every execution path (simplicial, supernodal,
//    parallel with the identity and the coarsened aggregate;
//    pruned/blocked/parallel trisolve); the verifier must flag 100% of the
//    applicable (corruption x path) cells;
//  * clean-pass sweep — every plan the Planner builds over the generator
//    suite, at three option configurations, verifies clean with the
//    emitted-code audit on for the paths PlanCompiler::eligible accepts;
//  * wiring — the Planner throws kPlanInvalid on findings (driven through
//    the kVerify fault site), records verify time in the plan evidence,
//    keeps verify_plan out of the cache key, and a warm facade factor()
//    neither re-verifies nor allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "core/compiled_kernel.h"
#include "core/inspector.h"
#include "core/pattern_key.h"
#include "core/plan_compiler.h"
#include "core/planner.h"
#include "core/workspace.h"
#include "gen/generators.h"
#include "graph/symbolic.h"
#include "parallel/schedule.h"
#include "util/fault.h"
#include "support/plans.h"
#include "util/status.h"
#include "verify/mutate.h"
#include "verify/verify.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

// Global operator new/delete replacements: count every allocation in the
// process (this binary links the whole library), for the warm zero-alloc
// regression below.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sympiler {
namespace {

using core::CholeskyPlan;
using core::ExecutionPath;
using core::Planner;
using core::PlannerConfig;
using core::TriSolvePlan;
using verify::Corruption;
using verify::kAllCorruptions;
using verify::PlanMutator;
using verify::Report;
using verify::VerifyOptions;

/// Allocations performed by fn().
template <class Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

struct FaultGuard {
  FaultGuard() { util::FaultInjector::reset(); }
  ~FaultGuard() { util::FaultInjector::reset(); }
};

// ------------------------------------------------------- plan variants

PlannerConfig sequential_config(double vs_gate) {
  PlannerConfig cfg;
  cfg.options.vsblock_min_avg_size = vs_gate;
  cfg.options.vsblock_min_avg_width = vs_gate > 0.0 ? vs_gate : 0.0;
  cfg.options.verify_plan = true;  // planner self-checks every build here
  cfg.enable_parallel = false;
  return cfg;
}

CholeskyPlan simplicial_plan() {
  const CscMatrix a = gen::random_spd(150, 2.5, 7);
  return Planner(sequential_config(1e9)).plan_cholesky(a);
}

CholeskyPlan supernodal_plan() {
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  return Planner(sequential_config(0.0)).plan_cholesky(a);
}

/// Parallel plans carrying the coarsened or the identity aggregate,
/// assembled from a supernodal plan (support/plans.h) so the kill matrix
/// exercises the parallel paths in every build, with or without OpenMP.
CholeskyPlan parallel_cholesky_plan(bool coarsen) {
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  return support::parallel_cholesky_plan(
      Planner(sequential_config(0.0)).plan_cholesky(a), a, coarsen);
}

/// A realistic supernodal lower factor pattern to drive trisolve plans:
/// L's pattern from the symbolic factorization (the verifier never reads
/// values).
CscMatrix factor_pattern(const CscMatrix& a) {
  return symbolic_cholesky(a).l_pattern;
}

TriSolvePlan pruned_plan(const CscMatrix& l, std::span<const index_t> beta) {
  return Planner(sequential_config(1e9)).plan_trisolve(l, beta);
}

TriSolvePlan blocked_plan(const CscMatrix& l, std::span<const index_t> beta) {
  return Planner(sequential_config(0.0)).plan_trisolve(l, beta);
}

TriSolvePlan parallel_trisolve_plan(const CscMatrix& l,
                                    std::span<const index_t> beta,
                                    bool coarsen) {
  core::SympilerOptions opt;
  opt.vsblock_min_avg_size = 1e9;  // column-level solve
  opt.vsblock_min_avg_width = 1e9;
  TriSolvePlan plan;
  plan.options = opt;
  plan.sets = core::inspect_trisolve(l, beta, opt);
  plan.update_map = parallel::update_slots_columns(l, plan.sets.reach);
  plan.workspace.n = l.cols();
  plan.workspace.need_map = false;
  plan.workspace.need_dense = false;
  plan.workspace.update_slots = plan.update_map.slots();
  plan.workspace.rhs_block = core::kRhsBlockWidth;
  plan.path = ExecutionPath::ParallelTriSolve;
  plan.agg = parallel::coarsen_schedule_columns(
      l, parallel::level_schedule_columns(l),
      parallel::CoarsenOptions{coarsen, coarsen});
  return plan;
}

std::vector<index_t> dense_beta(index_t n) {
  std::vector<index_t> beta(static_cast<std::size_t>(n));
  std::iota(beta.begin(), beta.end(), 0);
  return beta;
}

// --------------------------------------------------- mutation-kill matrix

struct KillTally {
  int applicable = 0;
  std::set<Corruption> applied;
  std::set<Corruption> killed;
};

/// A parallel path executes nothing but its aggregate schedule and slot
/// map, so dropping either must apply (and be killed) on every parallel
/// variant — and never apply to a sequential one.
void expect_drops_apply_iff_parallel(const char* name, bool parallel,
                                     const std::set<Corruption>& applied) {
  for (const Corruption c :
       {Corruption::kDroppedSchedule, Corruption::kDroppedSlotMap})
    EXPECT_EQ(applied.count(c) == 1, parallel)
        << name << " x " << verify::to_string(c);
}

void expect_killed(const char* path, Corruption c, const Report& report,
                   KillTally& tally) {
  ++tally.applicable;
  tally.applied.insert(c);
  EXPECT_FALSE(report.ok())
      << path << " x " << verify::to_string(c)
      << ": corruption survived verification";
  if (!report.ok()) tally.killed.insert(c);
}

/// The classes that corrupt a Cholesky plan's panels, A pattern, update
/// lists or path sets: each applies to some Cholesky path and to no
/// trisolve one.
constexpr Corruption kCholeskySetsClasses[] = {
    Corruption::kDroppedPanelZeroRow, Corruption::kAEntryOutsidePanel,
    Corruption::kUpdateRowOutsideTarget, Corruption::kStrayPattern,
    Corruption::kDroppedUpdateRef};

TEST(VerifyKillMatrix, CholeskyPathsCatchEveryApplicableCorruption) {
  const std::vector<std::pair<const char*, CholeskyPlan>> variants = [] {
    std::vector<std::pair<const char*, CholeskyPlan>> v;
    v.emplace_back("simplicial", simplicial_plan());
    v.emplace_back("supernodal", supernodal_plan());
    v.emplace_back("parallel-identity", parallel_cholesky_plan(false));
    v.emplace_back("coarsened", parallel_cholesky_plan(true));
    return v;
  }();

  // The supernodal variants run amalgamated panels (explicit zeros), so
  // the matrix covers merged plans.
  for (std::size_t v = 1; v < variants.size(); ++v) {
    const CholeskyPlan& plan = variants[v].second;
    ASSERT_LT(plan.sets.layout.nsuper(), plan.evidence.fundamental_supernodes)
        << variants[v].first;
  }

  KillTally tally;
  for (const auto& [name, base] : variants) {
    // Every base plan must verify clean before corruption.
    const Report clean = verify::verify_plan(base);
    ASSERT_TRUE(clean.ok()) << name << ": " << clean.to_string();

    std::set<Corruption> applied_here;
    for (const Corruption c : kAllCorruptions) {
      CholeskyPlan mutant = base;
      if (!PlanMutator::apply(mutant, c)) continue;
      applied_here.insert(c);
      expect_killed(name, c, verify::verify_plan(mutant), tally);
    }
    EXPECT_GE(applied_here.size(), 4u)
        << name << ": corruption classes stopped applying to this path";
    expect_drops_apply_iff_parallel(
        name, base.path == ExecutionPath::ParallelSupernodal, applied_here);
  }
  // The coarsened variant must genuinely fuse chains, or the chain cells
  // above were vacuous.
  const parallel::AggregateSchedule& coarse = variants.back().second.agg;
  EXPECT_LT(coarse.tasks(), static_cast<index_t>(coarse.items.size()));
  EXPECT_GE(tally.applicable, 16);
  // 100% kill rate: every corruption class that applied was caught.
  EXPECT_EQ(tally.killed, tally.applied);
  EXPECT_GE(tally.applied.size(), 6u);
  for (const Corruption c : kCholeskySetsClasses)
    EXPECT_TRUE(tally.applied.count(c)) << verify::to_string(c);
}

TEST(VerifyKillMatrix, TriSolvePathsCatchEveryApplicableCorruption) {
  const CscMatrix l = factor_pattern(gen::grid2d_laplacian(25, 25));
  const std::vector<index_t> sparse_beta = {0};
  const std::vector<index_t> full_beta = dense_beta(l.cols());

  struct Variant {
    const char* name;
    TriSolvePlan plan;
    std::span<const index_t> beta;
  };
  std::vector<Variant> variants;
  variants.push_back({"pruned", pruned_plan(l, sparse_beta), sparse_beta});
  variants.push_back({"blocked", blocked_plan(l, sparse_beta), sparse_beta});
  variants.push_back(
      {"parallel-identity", parallel_trisolve_plan(l, full_beta, false),
       full_beta});
  variants.push_back(
      {"coarsened", parallel_trisolve_plan(l, full_beta, true), full_beta});
  ASSERT_EQ(variants[0].plan.path, ExecutionPath::PrunedTriSolve);
  ASSERT_EQ(variants[1].plan.path, ExecutionPath::BlockedTriSolve);

  KillTally tally;
  for (const auto& variant : variants) {
    const Report clean = verify::verify_plan(variant.plan, l, variant.beta);
    ASSERT_TRUE(clean.ok()) << variant.name << ": " << clean.to_string();

    std::set<Corruption> applied_here;
    for (const Corruption c : kAllCorruptions) {
      TriSolvePlan mutant = variant.plan;
      if (!PlanMutator::apply(mutant, l, c)) continue;
      applied_here.insert(c);
      expect_killed(variant.name, c,
                    verify::verify_plan(mutant, l, variant.beta), tally);
    }
    EXPECT_GE(applied_here.size(), 4u)
        << variant.name
        << ": corruption classes stopped applying to this path";
    expect_drops_apply_iff_parallel(
        variant.name, variant.plan.path == ExecutionPath::ParallelTriSolve,
        applied_here);
  }
  const parallel::AggregateSchedule& coarse = variants.back().plan.agg;
  EXPECT_LT(coarse.tasks(), static_cast<index_t>(coarse.items.size()));
  EXPECT_GE(tally.applicable, 16);
  // 100% kill rate, and across the trisolve paths alone every corruption
  // class in the taxonomy must both apply somewhere and be caught — all
  // but the Cholesky-set classes, since trisolve plans carry no panels and
  // no A pattern.
  EXPECT_EQ(tally.killed, tally.applied);
  EXPECT_EQ(tally.applied.size(),
            std::size(kAllCorruptions) - std::size(kCholeskySetsClasses));
  for (const Corruption c : kCholeskySetsClasses)
    EXPECT_FALSE(tally.applied.count(c)) << verify::to_string(c);
}

/// The check ids of a report's findings.
std::set<std::string> finding_checks(const Report& report) {
  std::set<std::string> checks;
  for (const auto& f : report.findings) checks.insert(f.check);
  return checks;
}

// The supernodal structure pass checks the two preconditions the numeric
// scatter relies on: every stored entry of A lies in its supernode's panel
// rows, and every row a descendant update scatters is a row of its
// target. The a-entry-outside-panel and update-row-outside-target
// classes each break exactly one of them while every offset, extent and
// update window stays consistent, so on a sequential plan exactly one
// check fires.
TEST(VerifyKillMatrix, ScatterPreconditionsEachDiagnosedByTheirOwnCheck) {
  const std::pair<Corruption, const char*> cases[] = {
      {Corruption::kAEntryOutsidePanel, "structure.a-coverage"},
      {Corruption::kUpdateRowOutsideTarget, "structure.update-containment"},
  };
  for (const auto& [corruption, check] : cases) {
    CholeskyPlan plan = supernodal_plan();
    ASSERT_TRUE(verify::verify_plan(plan).ok());
    ASSERT_TRUE(PlanMutator::apply(plan, corruption))
        << verify::to_string(corruption);
    const Report report = verify::verify_plan(plan);
    EXPECT_EQ(finding_checks(report), std::set<std::string>{check})
        << verify::to_string(corruption) << ": " << report.to_string();
  }
}

// Dropping an explicit-zero row from an amalgamated panel keeps every
// offset, extent and update window consistent. The plan keeps no L
// pattern to compare the panel with, but the dropped row reached L either
// from an entry of A in the supernode's columns or through a descendant's
// update, so one of the two scatter preconditions breaks, and nothing
// else does.
TEST(VerifyKillMatrix, DroppedPanelZeroRowDiagnosedByAScatterPrecondition) {
  CholeskyPlan plan = supernodal_plan();
  ASSERT_TRUE(verify::verify_plan(plan).ok());
  ASSERT_TRUE(PlanMutator::apply(plan, Corruption::kDroppedPanelZeroRow));
  const Report report = verify::verify_plan(plan);
  ASSERT_FALSE(report.ok());
  for (const std::string& check : finding_checks(report))
    EXPECT_TRUE(check == "structure.a-coverage" ||
                check == "structure.update-containment")
        << report.to_string();
}

// The update lists must be exactly the segments a walk of the layout
// yields. Deleting one ref keeps every remaining ref well formed and
// every offset consistent, and a parallel plan's schedule still orders
// the missing edge, so on every supernodal variant the completeness
// check alone sees it. A simplicial plan has no update lists.
TEST(VerifyKillMatrix, DroppedUpdateRefDiagnosedOnlyByUpdateCompleteness) {
  const std::pair<const char*, CholeskyPlan> cases[] = {
      {"supernodal", supernodal_plan()},
      {"parallel-identity", parallel_cholesky_plan(false)},
      {"coarsened", parallel_cholesky_plan(true)},
  };
  for (const auto& [name, base] : cases) {
    CholeskyPlan plan = base;
    ASSERT_TRUE(verify::verify_plan(plan).ok()) << name;
    ASSERT_TRUE(PlanMutator::apply(plan, Corruption::kDroppedUpdateRef))
        << name;
    ASSERT_EQ(plan.sets.updates.refs.size() + 1, base.sets.updates.refs.size());
    const Report report = verify::verify_plan(plan);
    EXPECT_EQ(finding_checks(report),
              std::set<std::string>{"structure.update-completeness"})
        << name << ": " << report.to_string();
  }
  CholeskyPlan simplicial = simplicial_plan();
  EXPECT_FALSE(PlanMutator::apply(simplicial, Corruption::kDroppedUpdateRef));
}

// A plan carries only its own path's pattern. A simplicial plan that
// also holds a small A pattern, its workspace trimmed to that order, is
// caught twice: by the structure pass, and by the workspace pass, which
// sizes dims.n by L's order because no layout is present. A supernodal
// plan that also holds L's pattern is caught by the structure pass alone.
TEST(VerifyKillMatrix, StrayPatternDiagnosedByPathSets) {
  const std::pair<CholeskyPlan, std::set<std::string>> cases[] = {
      {simplicial_plan(), {"structure.path-sets", "workspace.n"}},
      {supernodal_plan(), {"structure.path-sets"}},
  };
  for (const auto& [base, checks] : cases) {
    CholeskyPlan plan = base;
    ASSERT_TRUE(verify::verify_plan(plan).ok());
    ASSERT_TRUE(PlanMutator::apply(plan, Corruption::kStrayPattern));
    const Report report = verify::verify_plan(plan);
    EXPECT_EQ(finding_checks(report), checks) << report.to_string();
  }
}

// The races pass must diagnose an out-of-order chain as its own
// "races.chain-order" family (not just the flattened dependence view):
// adjacent chain members always carry a direct dependence edge (that is
// why the coarsener fused them), so swapping them breaks intra-chain
// sequencing in a way the slot-map happens-before replay must name.
TEST(VerifyKillMatrix, ChainReorderDiagnosedByRacesChainOrder) {
  CholeskyPlan chol = parallel_cholesky_plan(true);
  ASSERT_FALSE(chol.agg.empty());
  ASSERT_TRUE(PlanMutator::apply(chol, Corruption::kChainReorder));
  const Report chol_report = verify::verify_plan(chol);
  ASSERT_FALSE(chol_report.ok());
  bool chol_named = false;
  for (const auto& f : chol_report.findings)
    if (f.check == "races.chain-order") chol_named = true;
  EXPECT_TRUE(chol_named) << chol_report.to_string();

  const CscMatrix l = factor_pattern(gen::grid2d_laplacian(25, 25));
  const std::vector<index_t> beta = dense_beta(l.cols());
  TriSolvePlan tri = parallel_trisolve_plan(l, beta, true);
  ASSERT_FALSE(tri.agg.empty());
  ASSERT_TRUE(PlanMutator::apply(tri, l, Corruption::kChainReorder));
  const Report tri_report = verify::verify_plan(tri, l, beta);
  ASSERT_FALSE(tri_report.ok());
  bool tri_named = false;
  for (const auto& f : tri_report.findings)
    if (f.check == "races.chain-order") tri_named = true;
  EXPECT_TRUE(tri_named) << tri_report.to_string();
}

// ------------------------------------------------------ clean-pass sweep

std::vector<std::pair<const char*, CscMatrix>> suite() {
  std::vector<std::pair<const char*, CscMatrix>> s;
  s.emplace_back("grid2d", gen::grid2d_laplacian(24, 24));
  s.emplace_back("grid3d", gen::grid3d_laplacian(7, 7, 7));
  s.emplace_back("block", gen::block_structural(9, 9, 3, 11));
  s.emplace_back("random", gen::random_spd(300, 2.5, 3));
  s.emplace_back("banded", gen::banded_spd(200, 8, 5));
  s.emplace_back("power", gen::power_grid(400, 60, 9));
  return s;
}

std::vector<std::pair<const char*, PlannerConfig>> sweep_configs() {
  std::vector<std::pair<const char*, PlannerConfig>> configs;
  {
    PlannerConfig cfg;  // stock defaults
    cfg.options.verify_plan = true;
    configs.emplace_back("default", cfg);
  }
  {
    PlannerConfig cfg;  // everything open: supernodal/parallel + coarsening
    cfg.options.verify_plan = true;
    cfg.options.vsblock_min_avg_size = 0.0;
    cfg.options.vsblock_min_avg_width = 0.0;
    cfg.parallel_min_supernodes = 1;
    cfg.parallel_min_avg_level_width = 0.0;
    cfg.coarsen_schedule = true;
    configs.emplace_back("open-gates", cfg);
  }
  {
    PlannerConfig cfg;  // naive corner: no pruning, no low-level
    cfg.options.verify_plan = true;
    cfg.options.vi_prune = false;
    cfg.options.low_level = false;
    cfg.enable_parallel = false;
    configs.emplace_back("naive", cfg);
  }
  return configs;
}

TEST(VerifyCleanSweep, EveryGeneratorSuitePlanPasses) {
  for (const auto& [cfg_name, cfg] : sweep_configs()) {
    for (const auto& [mat_name, a] : suite()) {
      // Cholesky plan (the Planner itself verifies too — verify_plan is
      // set — so a finding would already have thrown).
      const CholeskyPlan cplan = Planner(cfg).plan_cholesky(a);
      VerifyOptions vo;
      vo.audit_emitted_code = core::PlanCompiler::eligible(cplan);
      const Report creport = verify::verify_plan(cplan, vo);
      EXPECT_TRUE(creport.ok()) << cfg_name << "/" << mat_name
                                << " cholesky: " << creport.to_string();
      EXPECT_GT(creport.checks, 0);

      // Trisolve plans over the factor pattern, sparse and dense RHS.
      const CscMatrix l = factor_pattern(a);
      const std::vector<index_t> sparse = {0, a.cols() / 2};
      const std::vector<index_t> dense = dense_beta(l.cols());
      for (const auto& beta : {sparse, dense}) {
        const TriSolvePlan tplan = Planner(cfg).plan_trisolve(l, beta);
        VerifyOptions tvo;
        tvo.audit_emitted_code = core::PlanCompiler::eligible(tplan);
        const Report treport = verify::verify_plan(tplan, l, beta, tvo);
        EXPECT_TRUE(treport.ok())
            << cfg_name << "/" << mat_name << " trisolve (rhs "
            << beta.size() << "): " << treport.to_string();
        EXPECT_GT(treport.checks, 0);
      }
    }
  }
}

// -------------------------------------------------------------- wiring

TEST(VerifyWiring, PlannerThrowsPlanInvalidOnInjectedFinding) {
  const FaultGuard guard;
  const CscMatrix a = gen::grid2d_laplacian(12, 12);
  PlannerConfig cfg;
  cfg.options.verify_plan = true;
  util::FaultInjector::arm(util::FaultSite::kVerify, 1);
  try {
    const CholeskyPlan plan = Planner(cfg).plan_cholesky(a);
    FAIL() << "injected verification finding did not throw";
  } catch (const plan_verification_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPlanInvalid);
    EXPECT_NE(std::string(e.what()).find("fault.injected"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(util::FaultInjector::fired(), 1u);
}

TEST(VerifyWiring, VerifySiteParsesFromEnvSpec) {
  util::FaultSite site{};
  std::uint64_t nth = 0, count = 0;
  ASSERT_TRUE(util::FaultInjector::parse("verify:2", &site, &nth, &count));
  EXPECT_EQ(site, util::FaultSite::kVerify);
  EXPECT_EQ(nth, 2u);
}

TEST(VerifyWiring, VerifyTimeRecordedInEvidenceOnlyWhenEnabled) {
  const CscMatrix a = gen::grid2d_laplacian(16, 16);
  PlannerConfig on;
  on.options.verify_plan = true;
  EXPECT_GT(Planner(on).plan_cholesky(a).evidence.phases.verify, 0.0);
  PlannerConfig off;
  off.options.verify_plan = false;
  EXPECT_EQ(Planner(off).plan_cholesky(a).evidence.phases.verify, 0.0);
}

TEST(VerifyWiring, VerifyPlanIsNotHashedIntoTheCacheKey) {
  core::SympilerOptions base, flipped;
  flipped.verify_plan = !base.verify_plan;
  EXPECT_EQ(core::hash_options(base), core::hash_options(flipped));
}

TEST(VerifyWiring, ReportToStringNamesPassAndCheck) {
  CholeskyPlan plan = supernodal_plan();
  ASSERT_TRUE(PlanMutator::apply(plan, Corruption::kOutOfBoundsIndex));
  const Report report = verify::verify_plan(plan);
  ASSERT_FALSE(report.ok());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("verify: FAIL"), std::string::npos) << text;
  EXPECT_NE(text.find("[structure]"), std::string::npos) << text;
}

// ------------------------------------------------------ emitted auditor

TEST(VerifyEmitted, CatchesDishonestSourceBytes) {
  const CholeskyPlan plan = simplicial_plan();
  ASSERT_TRUE(core::PlanCompiler::eligible(plan));
  auto fake = std::make_shared<core::CompiledKernel>();
  fake->source_bytes = 17;  // nothing real is this small
  ASSERT_TRUE(plan.jit->publish(fake));
  VerifyOptions vo;
  vo.audit_emitted_code = true;
  const Report report = verify::verify_plan(plan, vo);
  ASSERT_FALSE(report.ok()) << report.to_string();
  EXPECT_EQ(report.findings.front().check, "emitted.source-bytes");
}

TEST(VerifyEmitted, CatchesDishonestCapAccounting) {
  const CholeskyPlan plan = simplicial_plan();
  plan.jit->mark_failed("source 17 bytes exceeds cap 5");
  VerifyOptions vo;
  vo.audit_emitted_code = true;
  const Report report = verify::verify_plan(plan, vo);
  ASSERT_FALSE(report.ok()) << report.to_string();
  EXPECT_EQ(report.findings.front().check, "emitted.cap-accounting");
}

TEST(VerifyEmitted, HonestSlotStatePassesTheAudit) {
  const CholeskyPlan plan = simplicial_plan();
  VerifyOptions vo;
  vo.audit_emitted_code = true;  // empty slot: nothing to cross-check
  const Report report = verify::verify_plan(plan, vo);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ------------------------------------------------- warm-path regression

TEST(VerifyAlloc, WarmFactorWithVerificationOnAllocatesNothing) {
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  api::SolverConfig cfg;
  cfg.options.verify_plan = true;  // verification rides the cold plan only
  api::Solver solver(cfg, nullptr);
  solver.factor(a);  // cold: plan, verify, size workspaces
  solver.factor(a);  // settle any lazy growth
  const double cold_verify = solver.plan()->evidence.phases.verify;
  EXPECT_GT(cold_verify, 0.0);
  const std::uint64_t allocs = allocations_in([&] { solver.factor(a); });
  EXPECT_EQ(allocs, 0u)
      << "warm factor() with verify_plan on touched the heap";
  // And the evidence still carries the single cold verification time.
  EXPECT_EQ(solver.plan()->evidence.phases.verify, cold_verify);
}

}  // namespace
}  // namespace sympiler
