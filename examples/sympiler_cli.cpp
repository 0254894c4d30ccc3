// Command-line driver: run the full Sympiler pipeline on a Matrix Market
// file (e.g. an original SuiteSparse Table-2 matrix) or a named suite
// problem, and report the inspection summary, factorization performance
// vs the library baselines, and optionally the generated C code or the
// execution plan the facade would cache.
//
// Usage:
//   sympiler_cli --mtx path/to/matrix.mtx [--dump-code] [--explain] [--verify]
//   sympiler_cli --suite 10 [--dump-code] [--no-low-level] [--no-vsblock]
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "core/cholesky_executor.h"
#include "core/inspector.h"
#include "core/plan_compiler.h"
#include "core/plan_store.h"
#include "core/planner.h"
#include "core/trisolve_executor.h"
#include "core/workspace.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "graph/etree.h"
#include "graph/symbolic.h"
#include "parallel/schedule.h"
#include "solvers/simplicial.h"
#include "solvers/supernodal.h"
#include "sparse/io_mm.h"
#include "sparse/ops.h"
#include "util/timer.h"
#include "verify/mutate.h"
#include "verify/verify.h"

using namespace sympiler;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sympiler_cli (--mtx FILE | --suite ID) [--dump-code] "
               "[--explain] [--verify] [--verify-corpus] [--plan-store DIR] "
               "[--no-low-level] [--no-vsblock]\n");
  return 2;
}

/// --verify: build the cold plans (Cholesky + a dense-RHS trisolve over
/// the factor pattern) and print the static verifier's report beside what
/// --explain shows — the operational view of the plan-invariant contract.
/// Exits nonzero on findings so scripts can gate on it.
int run_verify(const CscMatrix& a, core::SympilerOptions opt) {
  opt.verify_plan = false;  // the planner must not throw before we print
  core::PlannerConfig cfg;
  cfg.options = opt;
  const core::Planner planner(cfg);
  const core::CholeskyPlan cplan = planner.plan_cholesky(a);
  verify::VerifyOptions vo;
  vo.audit_emitted_code = core::PlanCompiler::eligible(cplan);
  const verify::Report creport = verify::verify_plan(cplan, vo);
  std::printf("cholesky %s\n", creport.to_string().c_str());

  const CscMatrix l = symbolic_cholesky(a).l_pattern;
  std::vector<index_t> beta(static_cast<std::size_t>(l.cols()));
  for (index_t j = 0; j < l.cols(); ++j) beta[j] = j;
  const core::TriSolvePlan tplan = planner.plan_trisolve(l, beta);
  verify::VerifyOptions tvo;
  tvo.audit_emitted_code = core::PlanCompiler::eligible(tplan);
  const verify::Report treport = verify::verify_plan(tplan, l, beta, tvo);
  std::printf("trisolve %s\n", treport.to_string().c_str());
  return creport.ok() && treport.ok() ? 0 : 1;
}

// ---------------------------------------------------------- --verify-corpus
//
// Self-test mode: seed every verify::PlanMutator corruption class into
// every plan variant the user's matrix admits (sequential simplicial and
// supernodal, parallel with the identity and the coarsened aggregate;
// pruned/blocked/parallel trisolve over the factor pattern) and assert the
// static verifier kills each one. The parallel variants are assembled from
// the pure schedule builders so the corpus exercises those paths in every
// build, with or without OpenMP.

core::PlannerConfig sequential_config(const core::SympilerOptions& base,
                                      double vs_gate) {
  core::PlannerConfig cfg;
  cfg.options = base;
  cfg.options.vsblock_min_avg_size = vs_gate;
  cfg.options.vsblock_min_avg_width = vs_gate > 0.0 ? vs_gate : 0.0;
  cfg.options.verify_plan = false;  // corpus verifies explicitly below
  cfg.enable_parallel = false;
  return cfg;
}

/// The parallel variant of a sequential supernodal plan of `a`: the
/// aggregate schedule and the forward-solve slot map the Planner adds when
/// its parallel gates clear. The schedule needs the etree, which plans do
/// not carry, so it is recomputed from `a`.
core::CholeskyPlan parallel_cholesky_plan(core::CholeskyPlan plan,
                                          const CscMatrix& a, bool coarsen) {
  const std::vector<index_t> parent = elimination_tree(a);
  const core::CholeskySets& sets = plan.sets;
  std::vector<index_t> dep_src(sets.updates.refs.size());
  for (std::size_t u = 0; u < dep_src.size(); ++u)
    dep_src[u] = sets.updates.refs[u].d;
  plan.agg = parallel::coarsen_schedule_supernodes(
      sets.layout.sn, parent, sets.updates.ptr, dep_src,
      parallel::level_schedule_supernodes(sets.layout.sn, parent),
      parallel::CoarsenOptions{coarsen, coarsen});
  plan.solve_update_map = parallel::update_slots_supernodes(sets.layout);
  plan.workspace.update_slots = plan.solve_update_map.slots();
  plan.path = core::ExecutionPath::ParallelSupernodal;
  return plan;
}

core::TriSolvePlan parallel_trisolve_plan(const CscMatrix& l,
                                          std::span<const index_t> beta,
                                          bool coarsen) {
  core::SympilerOptions opt;
  opt.vsblock_min_avg_size = 1e9;  // column-level solve
  opt.vsblock_min_avg_width = 1e9;
  core::TriSolvePlan plan;
  plan.options = opt;
  plan.sets = core::inspect_trisolve(l, beta, opt);
  plan.update_map = parallel::update_slots_columns(l, plan.sets.reach);
  plan.workspace.n = l.cols();
  plan.workspace.need_map = false;
  plan.workspace.need_dense = false;
  plan.workspace.update_slots = plan.update_map.slots();
  plan.workspace.rhs_block = core::kRhsBlockWidth;
  plan.path = core::ExecutionPath::ParallelTriSolve;
  plan.agg = parallel::coarsen_schedule_columns(
      l, parallel::level_schedule_columns(l),
      parallel::CoarsenOptions{coarsen, coarsen});
  return plan;
}

struct CorpusTally {
  int applicable = 0;
  int killed = 0;
};

int run_verify_corpus(const CscMatrix& a, const core::SympilerOptions& opt) {
  std::vector<std::pair<const char*, core::CholeskyPlan>> chol;
  chol.emplace_back(
      "chol/simplicial",
      core::Planner(sequential_config(opt, 1e9)).plan_cholesky(a));
  chol.emplace_back(
      "chol/supernodal",
      core::Planner(sequential_config(opt, 0.0)).plan_cholesky(a));
  chol.emplace_back("chol/parallel-identity",
                    parallel_cholesky_plan(chol[1].second, a, false));
  chol.emplace_back("chol/coarsened",
                    parallel_cholesky_plan(chol[1].second, a, true));

  const CscMatrix l = symbolic_cholesky(a).l_pattern;
  const std::vector<index_t> sparse_beta = {0};
  std::vector<index_t> full_beta(static_cast<std::size_t>(l.cols()));
  std::iota(full_beta.begin(), full_beta.end(), 0);
  struct TriVariant {
    const char* name;
    core::TriSolvePlan plan;
    std::span<const index_t> beta;
  };
  std::vector<TriVariant> tri;
  tri.push_back(
      {"tri/pruned",
       core::Planner(sequential_config(opt, 1e9)).plan_trisolve(l, sparse_beta),
       sparse_beta});
  tri.push_back(
      {"tri/blocked",
       core::Planner(sequential_config(opt, 0.0)).plan_trisolve(l, sparse_beta),
       sparse_beta});
  tri.push_back(
      {"tri/parallel-identity", parallel_trisolve_plan(l, full_beta, false),
       full_beta});
  tri.push_back(
      {"tri/coarsened", parallel_trisolve_plan(l, full_beta, true), full_beta});

  // Every base plan must verify clean before corruption, or the kill cells
  // below would be vacuous.
  for (const auto& [name, plan] : chol) {
    const verify::Report clean = verify::verify_plan(plan);
    if (!clean.ok()) {
      std::printf("%s base plan failed verification:\n%s\n", name,
                  clean.to_string().c_str());
      return 1;
    }
  }
  for (const auto& v : tri) {
    const verify::Report clean = verify::verify_plan(v.plan, l, v.beta);
    if (!clean.ok()) {
      std::printf("%s base plan failed verification:\n%s\n", v.name,
                  clean.to_string().c_str());
      return 1;
    }
  }

  std::map<verify::Corruption, CorpusTally> table;
  std::vector<std::string> survivors;
  for (const verify::Corruption c : verify::kAllCorruptions) {
    CorpusTally& tally = table[c];
    for (const auto& [name, base] : chol) {
      core::CholeskyPlan mutant = base;
      if (!verify::PlanMutator::apply(mutant, c)) continue;
      ++tally.applicable;
      if (!verify::verify_plan(mutant).ok()) {
        ++tally.killed;
      } else {
        survivors.push_back(std::string(name) + " x " + verify::to_string(c));
      }
    }
    for (const auto& v : tri) {
      core::TriSolvePlan mutant = v.plan;
      if (!verify::PlanMutator::apply(mutant, l, c)) continue;
      ++tally.applicable;
      if (!verify::verify_plan(mutant, l, v.beta).ok()) {
        ++tally.killed;
      } else {
        survivors.push_back(std::string(v.name) + " x " +
                            verify::to_string(c));
      }
    }
  }

  std::printf("=== corruption-kill table (%zu classes x %zu plan variants) "
              "===\n",
              std::size(verify::kAllCorruptions), chol.size() + tri.size());
  std::printf("%-26s %10s %6s\n", "class", "applicable", "killed");
  int total_applicable = 0;
  int total_killed = 0;
  for (const verify::Corruption c : verify::kAllCorruptions) {
    const CorpusTally& tally = table[c];
    total_applicable += tally.applicable;
    total_killed += tally.killed;
    std::printf("%-26s %10d %6d  %s\n", verify::to_string(c),
                tally.applicable, tally.killed,
                tally.applicable == 0         ? "n/a"
                : tally.killed == tally.applicable ? "KILLED"
                                                   : "SURVIVED");
  }
  std::printf("overall: %d/%d applicable cells killed\n", total_killed,
              total_applicable);
  for (const std::string& s : survivors)
    std::printf("SURVIVOR: %s\n", s.c_str());
  return total_killed == total_applicable && total_applicable > 0 ? 0 : 1;
}

/// --explain: factor through the api::Solver facade and print the
/// ExecutionPlan it planned (and cached), plus the cache counters after a
/// warm repeat — the operational view of the paper's decoupling.
void explain(const CscMatrix& a, const core::SympilerOptions& opt) {
  // Hold the store open across both Solvers so the shared instance (and
  // its counters) outlives their internal handles.
  std::shared_ptr<core::PlanStore> store;
  if (!opt.plan_store_dir.empty())
    store = core::PlanStore::open(opt.plan_store_dir);
  api::SolverConfig cfg;
  cfg.options = opt;
  auto context = std::make_shared<api::SymbolicContext>();
  api::Solver solver(cfg, context);
  solver.factor(a);
  std::printf("=== execution plan ===\n%s\n", solver.plan()->summary().c_str());
  std::printf("robustness: %s\n", solver.report().to_string().c_str());

  api::Solver warm(cfg, context);  // same pattern, fresh Solver: cache hit
  warm.factor(a);
  const CacheStats st = warm.cache_stats();
  std::printf(
      "cache: %s, hit_rate=%.0f%% (second Solver reused the plan: %s)\n",
      st.to_string().c_str(), st.hit_rate() * 100.0,
      warm.symbolic_cached() ? "yes" : "NO");

  if (store != nullptr) {
    store->flush();  // drain the write-behind queue before reading counters
    const core::PlanStore::Stats ps = store->stats();
    std::printf(
        "plan store (%s): loads=%llu (failed=%llu), writes=%llu "
        "(failed=%llu), discards=%llu, declines=%llu\n",
        store->dir().c_str(), static_cast<unsigned long long>(ps.loads),
        static_cast<unsigned long long>(ps.load_failures),
        static_cast<unsigned long long>(ps.writes),
        static_cast<unsigned long long>(ps.write_failures),
        static_cast<unsigned long long>(ps.discards),
        static_cast<unsigned long long>(ps.declines));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string mtx_path;
  int suite_id = 0;
  bool dump_code = false;
  bool want_explain = false;
  bool want_verify = false;
  bool want_corpus = false;
  core::SympilerOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--mtx") && i + 1 < argc) {
      mtx_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--suite") && i + 1 < argc) {
      suite_id = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--dump-code")) {
      dump_code = true;
    } else if (!std::strcmp(argv[i], "--explain")) {
      want_explain = true;
    } else if (!std::strcmp(argv[i], "--verify")) {
      want_verify = true;
    } else if (!std::strcmp(argv[i], "--verify-corpus")) {
      want_corpus = true;
    } else if (!std::strcmp(argv[i], "--plan-store") && i + 1 < argc) {
      opt.plan_store_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--no-low-level")) {
      opt.low_level = false;
    } else if (!std::strcmp(argv[i], "--no-vsblock")) {
      opt.vs_block = false;
    } else {
      return usage();
    }
  }
  if (mtx_path.empty() == (suite_id == 0)) return usage();

  try {
    CscMatrix a = mtx_path.empty()
                      ? gen::suite_problem(suite_id).make()
                      : lower_triangle(read_matrix_market_file(mtx_path));
    a.validate();
    SYMPILER_CHECK(a.rows() == a.cols(), "input must be square symmetric");
    std::printf("input: %s\n", a.to_string().c_str());

    if (want_corpus) {
      const int rc = run_verify_corpus(a, opt);
      if (rc != 0 || (!want_explain && !want_verify)) return rc;
    }
    if (want_verify) {
      const int rc = run_verify(a, opt);
      if (rc != 0 || !want_explain) return rc;
    }
    if (want_explain) {
      explain(a, opt);
      return 0;
    }

    // --- inspection ---
    Timer t_ins;
    core::CholeskyExecutor chol(a, opt);
    std::printf(
        "inspection: %.1f ms | nnz(L)=%lld, %d supernodes, "
        "vsb-size=%.1f, nnz(L)/n=%.1f -> VS-Block %s\n",
        t_ins.seconds() * 1e3,
        static_cast<long long>(chol.sets().sym.fill_nnz),
        chol.plan().evidence.supernodes, chol.sets().avg_supernode_size,
        a.cols() > 0 ? static_cast<double>(chol.sets().sym.fill_nnz) / a.cols()
                     : 0.0,
        chol.vs_block_applied() ? "applied" : "skipped");

    // --- numeric factorization vs baselines ---
    Timer t_num;
    chol.factorize(a);
    const double t_sym = t_num.seconds();
    std::printf("numeric factorization: %.1f ms (%.2f GFLOP/s)\n",
                t_sym * 1e3, chol.flops() / t_sym * 1e-9);
    {
      solvers::SimplicialCholesky eigen_like(a);
      Timer t;
      eigen_like.factorize(a);
      std::printf("  Eigen-like simplicial:   %.1f ms (%.2fx)\n",
                  t.seconds() * 1e3, t.seconds() / t_sym);
    }
    {
      solvers::SupernodalCholesky cholmod_like(a);
      Timer t;
      cholmod_like.factorize(a);
      std::printf("  CHOLMOD-like supernodal: %.1f ms (%.2fx)\n",
                  t.seconds() * 1e3, t.seconds() / t_sym);
    }

    // --- solve sanity ---
    const std::vector<value_t> b = gen::dense_rhs(a.cols(), 1);
    std::vector<value_t> x(b);
    chol.solve(x);
    std::printf("||Ax-b||_inf = %.3e\n",
                residual_inf_norm_symmetric_lower(a, x, b));

    if (dump_code) {
      const std::string source = core::PlanCompiler::emit(chol.plan());
      std::printf("=== generated C (%zu bytes) ===\n%s\n", source.size(),
                  source.size() < 16384
                      ? source.c_str()
                      : "(too large to print; use a smaller matrix)");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
