// Numeric-kernel benchmark driver: the VS-Block half of the perf
// trajectory, alongside BENCH_cache.json (symbolic half).
//
// Section 1 — dense kernel shapes. Every register-blocked kernel against
// its `_ref` scalar reference at the block shapes the supernodal executors
// actually produce (the acceptance shape is the supernodal gemm update,
// m~64 k~16). GF/s for both tiers plus the speedup; the two tiers are
// bit-identical (tests/test_blas.cpp), so this measures pure scheduling.
// Their samples alternate (time_pair), so host drift reaches both alike.
//
// Section 2 — multi-RHS kernel scaling. trsm_lower_multi throughput as the
// packed block widens: the per-column dependency chains are identical to
// trsv_lower, the win is panel reuse + unit-stride SIMD across RHS.
//
// Section 3 — end-to-end blocked solve_batch. api::Solver (supernodal
// path) and api::TriangularSolver (blocked path): nrhs looped solve()
// calls vs one blocked solve_batch(), bit-identical results.
//
// Section 4 — level-set parallel trisolve (OpenMP builds). The
// level-private deterministic scheme and its coarsened rewrites — flat
// schedule vs chain-fused vs chains+SIMD-bundles (all bit-identical; the
// ablation measures pure scheduling) — against the serial pruned solve,
// plus the packed multi-RHS level sweep and the chain-heavy banded
// tiny-level regime where fusion collapses thousands of barriers.
//
// Section 5 — one pass per VS-Block panel. The fused supernode panel
// factorization (potrf_panel) against potrf_lower + trsm_right_lower_trans
// at supernode widths w and below-diagonal heights m - w; the trapezoid
// update tile (syrk_trapezoid_minus) against the full gemm_nt_minus tile;
// and the executor's one-pass blocked trisolve against the two-pass order
// (diagonal parts, then tails) on the dense-corner L of a minimum-degree
// power grid factored by the GP LU. Each pair is bit-identical on the
// entries the factor keeps (tests/test_blas.cpp, tests/test_executors.cpp).
// The two-pass trisolve is this file's copy, compiled at the baseline ISA
// as the executor was before it joined the kernel-ISA TUs.
//
// Results print as tables and land in BENCH_kernels.json for the per-PR
// perf artifact. `--smoke` runs a reduced shape set with short reps (CI).
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "bench/common.h"
#include "blas/kernels.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "lu/lu.h"
#include "order/rcm.h"
#include "parallel/levelset.h"
#include "parallel/schedule.h"
#include "sparse/ops.h"
#include "util/timer.h"

using namespace sympiler;

namespace {

std::mt19937_64 g_rng(20260730);

std::vector<value_t> random_vec(std::size_t n) {
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> v(n);
  for (auto& x : v) x = dist(g_rng);
  return v;
}

std::vector<value_t> random_spd_dense(index_t n) {
  std::vector<value_t> b = random_vec(static_cast<std::size_t>(n) * n);
  std::vector<value_t> a(static_cast<std::size_t>(n) * n, 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      value_t s = 0.0;
      for (index_t k = 0; k < n; ++k) s += b[i + k * n] * b[j + k * n];
      a[i + j * n] = s + (i == j ? n : 0.0);
    }
  return a;
}

/// Median seconds per call of fn, calling it `inner` times per sample.
double kernel_seconds(const std::function<void()>& fn, int inner, int reps) {
  fn();  // warm-up
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (int i = 0; i < inner; ++i) fn();
    samples.push_back(t.seconds() / inner);
  }
  return median(samples);
}

/// Median seconds per call of a baseline and a candidate form, their
/// samples (`inner` calls each) taken alternately so that clock drift on a
/// shared machine reaches both sides alike. Returns {baseline, candidate}.
std::pair<double, double> time_pair(const std::function<void()>& baseline,
                                    const std::function<void()>& candidate,
                                    int inner, bool smoke) {
  baseline();  // warm-up
  candidate();
  const int reps = smoke ? 5 : 11;
  std::vector<double> base, cand;
  for (int r = 0; r < reps; ++r) {
    for (const bool first : {r % 2 == 0, r % 2 != 0}) {
      Timer t;
      for (int i = 0; i < inner; ++i) first ? baseline() : candidate();
      (first ? base : cand).push_back(t.seconds() / inner);
    }
  }
  return {median(base), median(cand)};
}

struct KernelRow {
  std::string name;
  index_t m = 0, n = 0, k = 0;
  double flops = 0.0;
  double ref_seconds = 0.0;
  double new_seconds = 0.0;
  [[nodiscard]] double ref_gflops() const { return flops / ref_seconds / 1e9; }
  [[nodiscard]] double new_gflops() const { return flops / new_seconds / 1e9; }
  [[nodiscard]] double speedup() const { return ref_seconds / new_seconds; }
};

struct MultiRhsRow {
  index_t n = 0, nrhs = 0;
  double seconds = 0.0;   ///< per packed-block solve
  double gflops = 0.0;
  double per_rhs_vs_trsv = 0.0;  ///< trsv time / (block time / nrhs)
};

struct BatchRow {
  std::string path;
  index_t n = 0, nrhs = 0;
  double looped_seconds = 0.0;
  double blocked_seconds = 0.0;
  [[nodiscard]] double speedup() const {
    return looped_seconds / blocked_seconds;
  }
};

int inner_iters(double flops, bool smoke) {
  const double target = smoke ? 2e7 : 2e8;  // flops per timed sample
  const double it = target / (flops > 0 ? flops : 1.0);
  return static_cast<int>(it < 1 ? 1 : (it > 1e6 ? 1e6 : it));
}

KernelRow bench_gemm(index_t m, index_t n, index_t k, bool smoke) {
  const std::vector<value_t> a = random_vec(static_cast<std::size_t>(m) * k);
  const std::vector<value_t> b = random_vec(static_cast<std::size_t>(n) * k);
  std::vector<value_t> c(static_cast<std::size_t>(m) * n, 0.0);
  KernelRow row{"gemm_nt_minus", m, n, k, 2.0 * m * n * k, 0, 0};
  std::tie(row.ref_seconds, row.new_seconds) = time_pair(
      [&] {
        blas::gemm_nt_minus_ref(m, n, k, a.data(), m, b.data(), n, c.data(),
                                m);
      },
      [&] {
        blas::gemm_nt_minus(m, n, k, a.data(), m, b.data(), n, c.data(), m);
      },
      inner_iters(row.flops, smoke), smoke);
  return row;
}

KernelRow bench_potrf(index_t n, bool smoke) {
  const std::vector<value_t> a = random_spd_dense(n);
  std::vector<value_t> l(a.size());
  KernelRow row{"potrf_lower", n, n, n, n / 3.0 * n * n, 0, 0};
  std::tie(row.ref_seconds, row.new_seconds) = time_pair(
      [&] {
        std::memcpy(l.data(), a.data(), a.size() * sizeof(value_t));
        blas::potrf_lower_ref(n, l.data(), n);
      },
      [&] {
        std::memcpy(l.data(), a.data(), a.size() * sizeof(value_t));
        blas::potrf_lower(n, l.data(), n);
      },
      inner_iters(row.flops + 8.0 * n * n, smoke), smoke);
  return row;
}

KernelRow bench_trsm(index_t m, index_t n, bool smoke) {
  std::vector<value_t> l = random_spd_dense(n);
  blas::potrf_lower(n, l.data(), n);
  const std::vector<value_t> b0 = random_vec(static_cast<std::size_t>(m) * n);
  std::vector<value_t> b(b0.size());
  KernelRow row{"trsm_right_lower_trans", m, n, n,
                static_cast<double>(m) * n * n, 0, 0};
  std::tie(row.ref_seconds, row.new_seconds) = time_pair(
      [&] {
        std::memcpy(b.data(), b0.data(), b.size() * sizeof(value_t));
        blas::trsm_right_lower_trans_ref(m, n, l.data(), n, b.data(), m);
      },
      [&] {
        std::memcpy(b.data(), b0.data(), b.size() * sizeof(value_t));
        blas::trsm_right_lower_trans(m, n, l.data(), n, b.data(), m);
      },
      inner_iters(row.flops + 8.0 * m * n, smoke), smoke);
  return row;
}

KernelRow bench_gemv(index_t m, index_t n, bool smoke) {
  const std::vector<value_t> a = random_vec(static_cast<std::size_t>(m) * n);
  const std::vector<value_t> x = random_vec(static_cast<std::size_t>(n));
  std::vector<value_t> y(static_cast<std::size_t>(m), 0.0);
  KernelRow row{"gemv_minus", m, n, 1, 2.0 * m * n, 0, 0};
  std::tie(row.ref_seconds, row.new_seconds) = time_pair(
      [&] { blas::gemv_minus_ref(m, n, a.data(), m, x.data(), y.data()); },
      [&] { blas::gemv_minus(m, n, a.data(), m, x.data(), y.data()); },
      inner_iters(row.flops, smoke), smoke);
  return row;
}

MultiRhsRow bench_trsm_multi(index_t n, index_t nrhs, double trsv_seconds,
                             bool smoke) {
  std::vector<value_t> l = random_spd_dense(n);
  blas::potrf_lower(n, l.data(), n);
  const std::vector<value_t> x0 =
      random_vec(static_cast<std::size_t>(n) * nrhs);
  std::vector<value_t> x(x0.size());
  MultiRhsRow row{n, nrhs, 0, 0, 0};
  const double flops = static_cast<double>(n) * n * nrhs;
  const int inner = inner_iters(flops + 8.0 * n * nrhs, smoke);
  const int reps = smoke ? 3 : 5;
  row.seconds = kernel_seconds(
      [&] {
        std::memcpy(x.data(), x0.data(), x.size() * sizeof(value_t));
        blas::trsm_lower_multi(n, nrhs, l.data(), n, x.data(), nrhs);
      },
      inner, reps);
  row.gflops = flops / row.seconds / 1e9;
  row.per_rhs_vs_trsv = trsv_seconds / (row.seconds / nrhs);
  return row;
}

BatchRow bench_solver_batch(const CscMatrix& a, const char* label,
                            index_t nrhs, bool smoke) {
  api::SolverConfig config;
  config.enable_parallel = false;  // measure the blocked kernels themselves
  api::Solver solver(config, nullptr);
  solver.factor(a);
  const auto n = static_cast<std::size_t>(a.cols());
  const std::vector<value_t> base = random_vec(n * nrhs);
  std::vector<value_t> xs(base.size());
  BatchRow row{std::string(label) + "/" + api::to_string(solver.path()),
               a.cols(), nrhs, 0, 0};
  const int reps = smoke ? 3 : 5;
  row.looped_seconds = bench::median_seconds(
      [&] {
        std::memcpy(xs.data(), base.data(), xs.size() * sizeof(value_t));
        for (index_t r = 0; r < nrhs; ++r)
          solver.solve(std::span<value_t>(xs).subspan(r * n, n));
      },
      reps);
  row.blocked_seconds = bench::median_seconds(
      [&] {
        std::memcpy(xs.data(), base.data(), xs.size() * sizeof(value_t));
        solver.solve_batch(xs, nrhs);
      },
      reps);
  return row;
}

BatchRow bench_trisolve_batch(const CscMatrix& a, index_t nrhs, bool smoke) {
  api::SolverConfig config;
  config.enable_parallel = false;
  api::Solver chol(config, nullptr);
  chol.factor(a);
  const CscMatrix l = chol.factor_csc();
  std::vector<index_t> beta(static_cast<std::size_t>(l.cols()));
  for (index_t j = 0; j < l.cols(); ++j) beta[j] = j;  // dense RHS pattern
  api::TriangularSolver tri(l, beta, config, nullptr);
  const auto n = static_cast<std::size_t>(l.cols());
  const std::vector<value_t> base = random_vec(n * nrhs);
  std::vector<value_t> xs(base.size());
  BatchRow row{std::string("trisolve/") + api::to_string(tri.path()), l.cols(),
               nrhs, 0, 0};
  const int reps = smoke ? 3 : 5;
  row.looped_seconds = bench::median_seconds(
      [&] {
        std::memcpy(xs.data(), base.data(), xs.size() * sizeof(value_t));
        for (index_t r = 0; r < nrhs; ++r)
          tri.solve(std::span<value_t>(xs).subspan(r * n, n));
      },
      reps);
  row.blocked_seconds = bench::median_seconds(
      [&] {
        std::memcpy(xs.data(), base.data(), xs.size() * sizeof(value_t));
        tri.solve_batch(xs, nrhs);
      },
      reps);
  return row;
}

struct ParTriRow {
  std::string scheme;
  index_t n = 0, nrhs = 1;
  double seconds = 0.0;  ///< per full (possibly batched) solve
  double per_rhs_vs_serial = 0.0;
};

std::vector<ParTriRow> bench_parallel_trisolve(bool smoke) {
  const index_t g = smoke ? 60 : 110;
  const CscMatrix a = gen::grid2d_laplacian(g, g);
  api::SolverConfig chol_config;
  chol_config.enable_parallel = false;
  api::Solver chol(chol_config, nullptr);
  chol.factor(a);
  const CscMatrix l = chol.factor_csc();
  const index_t n = l.cols();
  std::vector<index_t> beta(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) beta[static_cast<std::size_t>(j)] = j;

  core::PlannerConfig pc;
  pc.options.vsblock_min_avg_size = 1e9;  // pruned baseline, parallel plan
  pc.enable_parallel = true;
  pc.parallel_min_avg_level_width = 0.0;
  auto plan = std::make_shared<const core::TriSolvePlan>(
      core::Planner(pc).plan_trisolve(l, beta, core::PatternKey{}));
  if (plan->path != core::ExecutionPath::ParallelTriSolve)
    return {};  // sequential build: the planner never opens the path

  // Coarsening ablation variants of the same plan: the planner-built
  // `plan` carries chains + SIMD bundles; `flat` runs the identity
  // aggregate (one task per column at its flat level — the plain level
  // sweep), `chains` re-coarsens with bundling off. All three interpret
  // identical slot maps, so the rows isolate the scheduling rewrite.
  const parallel::LevelSchedule levels = parallel::level_schedule_columns(l);
  core::TriSolvePlan flat = *plan;
  flat.agg = parallel::coarsen_schedule_columns(
      l, levels, parallel::CoarsenOptions{false, false});
  core::TriSolvePlan chains = *plan;
  chains.agg = parallel::coarsen_schedule_columns(
      l, levels, parallel::CoarsenOptions{true, false});

  const int reps = smoke ? 3 : 5;
  std::vector<ParTriRow> rows;
  const std::vector<value_t> b = random_vec(static_cast<std::size_t>(n));
  std::vector<value_t> x(b.size());

  core::TriSolveExecutor serial(plan, l);
  const double serial_seconds = bench::median_seconds(
      [&] {
        std::memcpy(x.data(), b.data(), x.size() * sizeof(value_t));
        serial.solve(x);
      },
      reps);
  rows.push_back({"serial-pruned", n, 1, serial_seconds, 1.0});

  core::Workspace ws;
  const auto time_scheme = [&](const core::TriSolvePlan& p) {
    return bench::median_seconds(
        [&] {
          std::memcpy(x.data(), b.data(), x.size() * sizeof(value_t));
          parallel::parallel_trisolve(l, p, x, ws);
        },
        reps);
  };
  const double flat_seconds = time_scheme(flat);
  rows.push_back({"level-private (flat)", n, 1, flat_seconds,
                  serial_seconds / flat_seconds});
  const double chain_seconds = time_scheme(chains);
  rows.push_back({"chain-fused", n, 1, chain_seconds,
                  serial_seconds / chain_seconds});
  const double coarse_seconds = time_scheme(*plan);
  rows.push_back({"chains+bundles", n, 1, coarse_seconds,
                  serial_seconds / coarse_seconds});

  for (const index_t nrhs : {8, 32}) {
    const std::vector<value_t> base =
        random_vec(static_cast<std::size_t>(n) * nrhs);
    std::vector<value_t> xs(base.size());
    const double batch_seconds = bench::median_seconds(
        [&] {
          std::memcpy(xs.data(), base.data(), xs.size() * sizeof(value_t));
          parallel::parallel_trisolve_batch(l, *plan, xs, nrhs, ws);
        },
        reps);
    rows.push_back({"coarsened-multi", n, nrhs, batch_seconds,
                    serial_seconds / (batch_seconds / nrhs)});
  }

  // Tiny-level regime: a narrow banded factor has an almost purely
  // sequential schedule (thousands of levels of width ~1). These levels
  // now skip the omp-for and run serially under `single` — this case
  // tracks what the per-level chunking buys where it matters most.
  {
    const index_t bn = smoke ? 3000 : 12000;
    const CscMatrix ab = gen::banded_spd(bn, 8, 11);
    api::Solver bchol(chol_config, nullptr);
    bchol.factor(ab);
    const CscMatrix lb = bchol.factor_csc();
    std::vector<index_t> bbeta(static_cast<std::size_t>(lb.cols()));
    for (index_t j = 0; j < lb.cols(); ++j)
      bbeta[static_cast<std::size_t>(j)] = j;
    auto bplan = std::make_shared<const core::TriSolvePlan>(
        core::Planner(pc).plan_trisolve(lb, bbeta, core::PatternKey{}));
    if (bplan->path == core::ExecutionPath::ParallelTriSolve) {
      const parallel::LevelSchedule blevels =
          parallel::level_schedule_columns(lb);
      core::TriSolvePlan bflat = *bplan;
      bflat.agg = parallel::coarsen_schedule_columns(
          lb, blevels, parallel::CoarsenOptions{false, false});
      core::TriSolvePlan bchains = *bplan;
      bchains.agg = parallel::coarsen_schedule_columns(
          lb, blevels, parallel::CoarsenOptions{true, false});
      const std::vector<value_t> bb =
          random_vec(static_cast<std::size_t>(lb.cols()));
      std::vector<value_t> bx(bb.size());
      core::TriSolveExecutor bserial(bplan, lb);
      const double bserial_seconds = bench::median_seconds(
          [&] {
            std::memcpy(bx.data(), bb.data(), bx.size() * sizeof(value_t));
            bserial.solve(bx);
          },
          reps);
      rows.push_back({"serial-pruned (banded)", lb.cols(), 1, bserial_seconds,
                      1.0});
      const auto btime = [&](const core::TriSolvePlan& p) {
        return bench::median_seconds(
            [&] {
              std::memcpy(bx.data(), bb.data(), bx.size() * sizeof(value_t));
              parallel::parallel_trisolve(lb, p, bx, ws);
            },
            reps);
      };
      const double bflat_seconds = btime(bflat);
      rows.push_back({"flat (banded tiny-lvl)", lb.cols(), 1, bflat_seconds,
                      bserial_seconds / bflat_seconds});
      const double bchain_seconds = btime(bchains);
      rows.push_back({"chain-fused (banded)", lb.cols(), 1, bchain_seconds,
                      bserial_seconds / bchain_seconds});
      const double bcoarse_seconds = btime(*bplan);
      rows.push_back({"chains+bundles (banded)", lb.cols(), 1, bcoarse_seconds,
                      bserial_seconds / bcoarse_seconds});
    }
  }
  return rows;
}

// ------------------------------------------ one pass per VS-Block panel

struct OnePassRow {
  std::string name;
  index_t m = 0, n = 0, k = 0;
  double baseline_seconds = 0.0;  ///< separate calls / full tile / two-pass
  double one_pass_seconds = 0.0;
  [[nodiscard]] double speedup() const {
    return baseline_seconds / one_pass_seconds;
  }
};

/// potrf_panel(m, w) vs potrf_lower(w) + trsm_right_lower_trans(m - w, w).
OnePassRow bench_potrf_panel(index_t w, index_t below, bool smoke) {
  const index_t m = w + below;
  const std::vector<value_t> spd = random_spd_dense(m);
  std::vector<value_t> p(spd.size());
  OnePassRow row{"potrf_panel", m, w, w, 0, 0};
  const double flops = w / 3.0 * w * w + static_cast<double>(below) * w * w;
  std::tie(row.baseline_seconds, row.one_pass_seconds) = time_pair(
      [&] {
        std::memcpy(p.data(), spd.data(), p.size() * sizeof(value_t));
        blas::potrf_lower(w, p.data(), m);
        if (below > 0)
          blas::trsm_right_lower_trans(below, w, p.data(), m, p.data() + w, m);
      },
      [&] {
        std::memcpy(p.data(), spd.data(), p.size() * sizeof(value_t));
        blas::potrf_panel(m, w, p.data(), m);
      },
      inner_iters(flops + 8.0 * m * w, smoke), smoke);
  return row;
}

/// The supernodal update tile: the lower trapezoid (rows at or below each
/// target column) vs the full m x n gemm_nt_minus tile.
OnePassRow bench_trapezoid(index_t m, index_t n, index_t k, bool smoke) {
  const std::vector<value_t> a = random_vec(static_cast<std::size_t>(m) * k);
  std::vector<value_t> c(static_cast<std::size_t>(m) * n, 0.0);
  OnePassRow row{"update_tile", m, n, k, 0, 0};
  std::tie(row.baseline_seconds, row.one_pass_seconds) = time_pair(
      [&] {
        blas::gemm_nt_minus(m, n, k, a.data(), m, a.data(), m, c.data(), m);
      },
      [&] { blas::syrk_trapezoid_minus(m, n, k, a.data(), m, c.data(), m); },
      inner_iters(2.0 * m * n * k, smoke), smoke);
  return row;
}

/// The blocked forward solve in the two-pass order: per block, every
/// reached column's diagonal part, then a second pass over the same
/// columns for their tails (paired with the low-level transformations on,
/// the planner's default).
void trisolve_two_pass(const core::TriSolvePlan& plan, const CscMatrix& l,
                       std::span<value_t> x, std::vector<value_t>& tail) {
  const core::TriSolveSets& sets = plan.sets;
  const index_t* Li = l.rowind.data();
  const value_t* Lx = l.values.data();
  for (std::size_t k = 0; k < sets.sn_reach.size(); ++k) {
    const index_t s = sets.sn_reach[k];
    const index_t c1 = sets.blocks.start[s];
    const index_t c2 = sets.blocks.start[s + 1];
    const index_t cr = sets.sn_first_col[k];
    const index_t tail_len = sets.colcount[c1] - (c2 - c1);
    if (c2 - cr == 1 && cr == c1) {
      const index_t p0 = l.col_begin(cr);
      const value_t xj = x[cr] / Lx[p0];
      x[cr] = xj;
      for (index_t p = p0 + 1; p < l.col_end(cr); ++p)
        x[Li[p]] -= Lx[p] * xj;
      continue;
    }
    for (index_t j = cr; j < c2; ++j) {
      const index_t p0 = l.col_begin(j);
      const value_t xj = x[j] / Lx[p0];
      x[j] = xj;
      for (index_t t = 0; t < c2 - j - 1; ++t)
        x[j + 1 + t] -= Lx[p0 + 1 + t] * xj;
    }
    if (tail_len == 0) continue;
    std::fill(tail.begin(), tail.begin() + tail_len, 0.0);
    index_t j = cr;
    for (; j + 1 < c2; j += 2) {
      const value_t xa = x[j];
      const value_t xb = x[j + 1];
      const value_t* ca = Lx + l.col_begin(j) + (c2 - j);
      const value_t* cb = Lx + l.col_begin(j + 1) + (c2 - j - 1);
      for (index_t t = 0; t < tail_len; ++t)
        tail[t] += ca[t] * xa + cb[t] * xb;
    }
    for (; j < c2; ++j) {
      const value_t xj = x[j];
      const value_t* cj = Lx + l.col_begin(j) + (c2 - j);
      for (index_t t = 0; t < tail_len; ++t) tail[t] += cj[t] * xj;
    }
    const index_t* rows = Li + l.col_begin(c1) + (c2 - c1);
    for (index_t t = 0; t < tail_len; ++t) x[rows[t]] -= tail[t];
  }
}

/// One-pass executor solve vs the two-pass order on the dense-corner L of
/// a minimum-degree power grid of n buses factored by the GP LU, with a
/// 24-bus injection pattern (the transient-simulation input). The row
/// reports m = n, n = the widest reached block, k = the longest tail.
OnePassRow bench_trisolve_one_pass(index_t n, bool smoke) {
  const CscMatrix raw = gen::power_grid(n, n / 5, 11);
  const CscMatrix lower =
      permute_symmetric_lower(raw, order::minimum_degree(raw));
  const CscMatrix a = symmetric_full_from_lower(lower);
  lu::LuFactor lu(a);
  lu.factorize(a);
  const CscMatrix l = lu.lower();
  const std::vector<value_t> b = gen::sparse_rhs(n, 24, 5);
  std::vector<index_t> beta;
  for (index_t i = 0; i < n; ++i)
    if (b[i] != 0.0) beta.push_back(i);
  const core::TriSolveExecutor exec(l, beta);
  OnePassRow row{"trisolve_blocked", n, 0, 0, 0, 0};
  if (!exec.vs_block_applied()) return row;
  index_t max_tail = 0;
  for (const index_t s : exec.sets().sn_reach) {
    const index_t c1 = exec.sets().blocks.start[s];
    const index_t w = exec.sets().blocks.start[s + 1] - c1;
    row.n = std::max(row.n, w);  // widest reached block
    max_tail = std::max(max_tail, exec.sets().colcount[c1] - w);
  }
  row.k = max_tail;
  std::vector<value_t> x(b.size()), tail(static_cast<std::size_t>(max_tail));
  std::tie(row.baseline_seconds, row.one_pass_seconds) = time_pair(
      [&] {
        std::memcpy(x.data(), b.data(), x.size() * sizeof(value_t));
        trisolve_two_pass(exec.plan(), l, x, tail);
      },
      [&] {
        std::memcpy(x.data(), b.data(), x.size() * sizeof(value_t));
        exec.solve(x);
      },
      smoke ? 20 : 200, smoke);
  return row;
}

std::vector<OnePassRow> bench_one_pass(bool smoke) {
  std::vector<OnePassRow> rows;
  for (const index_t w : {8, 16, 32, 64, 149})
    for (const index_t below : {0, 24, 64})
      rows.push_back(bench_potrf_panel(w, below, smoke));
  rows.push_back(bench_trapezoid(24, 8, 8, smoke));
  rows.push_back(bench_trapezoid(64, 16, 16, smoke));
  rows.push_back(bench_trapezoid(96, 32, 32, smoke));
  if (!smoke) rows.push_back(bench_trapezoid(213, 149, 16, smoke));
  rows.push_back(bench_trisolve_one_pass(12000, smoke));
  return rows;
}

void emit_json(const std::vector<KernelRow>& kernels,
               const std::vector<MultiRhsRow>& multi,
               const std::vector<BatchRow>& batches,
               const std::vector<ParTriRow>& partri,
               const std::vector<OnePassRow>& one_pass) {
  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f == nullptr) {
    std::printf("!! could not open BENCH_kernels.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"kernels\": [\n");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& r = kernels[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"m\": %d, \"n\": %d, \"k\": %d, "
                 "\"ref_gflops\": %.3f, \"blocked_gflops\": %.3f, "
                 "\"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.m, r.n, r.k, r.ref_gflops(),
                 r.new_gflops(), r.speedup(),
                 i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"multi_rhs\": [\n");
  for (std::size_t i = 0; i < multi.size(); ++i) {
    const MultiRhsRow& r = multi[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"nrhs\": %d, \"gflops\": %.3f, "
                 "\"per_rhs_speedup_vs_trsv\": %.3f}%s\n",
                 r.n, r.nrhs, r.gflops, r.per_rhs_vs_trsv,
                 i + 1 < multi.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"solve_batch\": [\n");
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const BatchRow& r = batches[i];
    std::fprintf(f,
                 "    {\"path\": \"%s\", \"n\": %d, \"nrhs\": %d, "
                 "\"looped_seconds\": %.6f, \"blocked_seconds\": %.6f, "
                 "\"speedup\": %.3f}%s\n",
                 r.path.c_str(), r.n, r.nrhs, r.looped_seconds,
                 r.blocked_seconds, r.speedup(),
                 i + 1 < batches.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"parallel_trisolve\": [\n");
  for (std::size_t i = 0; i < partri.size(); ++i) {
    const ParTriRow& r = partri[i];
    std::fprintf(f,
                 "    {\"scheme\": \"%s\", \"n\": %d, \"nrhs\": %d, "
                 "\"seconds\": %.6f, \"per_rhs_speedup_vs_serial\": %.3f}%s\n",
                 r.scheme.c_str(), r.n, r.nrhs, r.seconds,
                 r.per_rhs_vs_serial, i + 1 < partri.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"one_pass\": [\n");
  for (std::size_t i = 0; i < one_pass.size(); ++i) {
    const OnePassRow& r = one_pass[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"m\": %d, \"n\": %d, \"k\": %d, "
                 "\"baseline_seconds\": %.9f, \"one_pass_seconds\": %.9f, "
                 "\"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.m, r.n, r.k, r.baseline_seconds,
                 r.one_pass_seconds, r.speedup(),
                 i + 1 < one_pass.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_kernels.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;

  std::printf("== dense kernels: register-blocked vs _ref scalar ==\n");
  std::printf("%-24s %5s %5s %5s   %9s %9s %8s\n", "kernel", "m", "n", "k",
              "ref GF/s", "new GF/s", "speedup");
  bench::print_rule(78);
  std::vector<KernelRow> kernels;
  // The supernodal gemm-update shape (acceptance criterion) first.
  kernels.push_back(bench_gemm(64, 16, 16, smoke));
  if (!smoke) {
    kernels.push_back(bench_gemm(16, 8, 8, smoke));
    kernels.push_back(bench_gemm(32, 16, 8, smoke));
    kernels.push_back(bench_gemm(64, 32, 16, smoke));
    kernels.push_back(bench_gemm(128, 32, 32, smoke));
    kernels.push_back(bench_gemm(192, 64, 32, smoke));
  } else {
    kernels.push_back(bench_gemm(128, 32, 32, smoke));
  }
  kernels.push_back(bench_potrf(smoke ? 32 : 64, smoke));
  if (!smoke) kernels.push_back(bench_potrf(128, smoke));
  kernels.push_back(bench_trsm(64, 16, smoke));
  if (!smoke) kernels.push_back(bench_trsm(128, 32, smoke));
  kernels.push_back(bench_gemv(64, 16, smoke));
  for (const KernelRow& r : kernels)
    std::printf("%-24s %5d %5d %5d   %9.2f %9.2f %7.2fx\n", r.name.c_str(),
                r.m, r.n, r.k, r.ref_gflops(), r.new_gflops(), r.speedup());

  std::printf("\n== multi-RHS kernel scaling (trsm_lower_multi, n=64) ==\n");
  std::printf("%5s %6s   %9s %22s\n", "n", "nrhs", "GF/s", "per-RHS vs trsv");
  bench::print_rule(50);
  const index_t tn = 64;
  std::vector<value_t> tl = random_spd_dense(tn);
  blas::potrf_lower(tn, tl.data(), tn);
  const std::vector<value_t> tx0 = random_vec(static_cast<std::size_t>(tn));
  std::vector<value_t> tx(tx0.size());
  const double trsv_seconds = kernel_seconds(
      [&] {
        // Restore before each solve: repeated in-place L^{-1} application
        // would walk the values into denormal/inf territory and poison the
        // timing.
        std::memcpy(tx.data(), tx0.data(), tx.size() * sizeof(value_t));
        blas::trsv_lower(tn, tl.data(), tn, tx.data());
      },
      inner_iters(static_cast<double>(tn) * tn, smoke), smoke ? 3 : 5);
  std::vector<MultiRhsRow> multi;
  for (const index_t nrhs : {1, 4, 8, 16, 32})
    multi.push_back(bench_trsm_multi(tn, nrhs, trsv_seconds, smoke));
  for (const MultiRhsRow& r : multi)
    std::printf("%5d %6d   %9.2f %21.2fx\n", r.n, r.nrhs, r.gflops,
                r.per_rhs_vs_trsv);

  std::printf("\n== end-to-end solve_batch: blocked vs looped ==\n");
  std::printf("%-32s %7s %6s   %10s %10s %8s\n", "path", "n", "nrhs",
              "looped s", "blocked s", "speedup");
  bench::print_rule(82);
  std::vector<BatchRow> batches;
  const index_t g = smoke ? 60 : 110;
  const CscMatrix mesh = gen::grid2d_laplacian(g, g);
  batches.push_back(bench_solver_batch(mesh, "cholesky", 64, smoke));
  if (!smoke) {
    batches.push_back(bench_solver_batch(mesh, "cholesky", 16, smoke));
    const CscMatrix blocks = gen::block_structural(26, 26, 4, 7);
    batches.push_back(bench_solver_batch(blocks, "cholesky", 64, smoke));
  }
  batches.push_back(bench_trisolve_batch(mesh, 64, smoke));
  for (const BatchRow& r : batches)
    std::printf("%-32s %7d %6d   %10.5f %10.5f %7.2fx\n", r.path.c_str(), r.n,
                r.nrhs, r.looped_seconds, r.blocked_seconds, r.speedup());

  std::printf(
      "\n== level-set parallel trisolve: flat vs chain-fused vs "
      "chains+bundles ==\n");
  const std::vector<ParTriRow> partri = bench_parallel_trisolve(smoke);
  if (partri.empty()) {
    std::printf("(skipped: built without OpenMP — no parallel plan)\n");
  } else {
    std::printf("%-26s %7s %6s   %10s %22s\n", "scheme", "n", "nrhs",
                "seconds", "per-RHS vs serial");
    bench::print_rule(78);
    for (const ParTriRow& r : partri)
      std::printf("%-26s %7d %6d   %10.6f %21.2fx\n", r.scheme.c_str(), r.n,
                  r.nrhs, r.seconds, r.per_rhs_vs_serial);
  }

  std::printf(
      "\n== one pass per VS-Block panel: fused vs separate passes ==\n");
  std::printf("%-18s %6s %5s %5s   %12s %12s %8s\n", "kernel", "m", "n", "k",
              "baseline s", "one-pass s", "speedup");
  bench::print_rule(78);
  const std::vector<OnePassRow> one_pass = bench_one_pass(smoke);
  for (const OnePassRow& r : one_pass)
    std::printf("%-18s %6d %5d %5d   %12.3e %12.3e %7.2fx\n", r.name.c_str(),
                r.m, r.n, r.k, r.baseline_seconds, r.one_pass_seconds,
                r.speedup());

  emit_json(kernels, multi, batches, partri, one_pass);
  return 0;
}
