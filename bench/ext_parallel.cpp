// Extension bench: level-set (wavefront) parallel executors — the paper's
// stated extension to shared memory (realized by the ParSy follow-on).
// Compares sequential executors against the OpenMP level-set versions,
// run over identity aggregates (one task per item at its level, no chain
// fusion or bundling) so the rows time the plain wavefront. The solve
// columns time the single-RHS supernodal solve: the serial panel solves
// against the level-set sweep Solver::solve runs on a parallel plan, both
// on the factor just computed. The last two columns say whether the
// parallel factor and solve equal the sequential ones bit for bit.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

#include "bench/common.h"
#include "core/cholesky_executor.h"
#include "core/planner.h"
#include "core/workspace.h"
#include "gen/suite.h"
#include "parallel/levelset.h"
#include "solvers/trisolve.h"

using namespace sympiler;

int main() {
#ifdef SYMPILER_HAS_OPENMP
  std::printf("Extension: level-set parallel executors (%d threads)\n",
              omp_get_max_threads());
#else
  std::printf("Extension: level-set executors (built without OpenMP)\n");
#endif
  const int width = 160;
  bench::print_rule(width);
  std::printf("%2s %-14s | %6s %10s %10s %7s | %10s %10s %7s | %10s %10s %7s "
              "| %5s %5s\n",
              "id", "name", "levels", "seq-tri(s)", "par-tri(s)", "speedup",
              "seq-chol", "par-chol", "speedup", "seq-solve", "par-solve",
              "speedup", "chol=", "sol=");
  bench::print_rule(width);

  for (const int id : {2, 8, 10, 11}) {
    const auto& spec = gen::suite_problem(id);
    const CscMatrix a = spec.make();
    // Supernodal path for all, parallel gates open, identity aggregate.
    core::PlannerConfig config;
    config.options.vsblock_min_avg_size = 0.0;
    config.options.vsblock_min_avg_width = 0.0;
    config.parallel_min_supernodes = 1;
    config.parallel_min_avg_level_width = 0.0;
    config.coarsen_schedule = false;
    const core::CholeskyPlan plan = core::Planner(config).plan_cholesky(a);
    const bool parallel_plan =
        plan.path == core::ExecutionPath::ParallelSupernodal;
    const solvers::SupernodalLayout& layout = plan.sets.layout;

    core::CholeskyExecutor exec(a, config.options);
    const double t_seq_chol = bench::bench_seconds([&] { exec.factorize(a); });

    // Without OpenMP no parallel plan is built; the parallel columns
    // then read 0 and the bit columns "-".
    std::vector<value_t> panels(
        static_cast<std::size_t>(layout.total_values()));
    double t_par_chol = 0.0;
    if (parallel_plan)
      t_par_chol = bench::bench_seconds(
          [&] { parallel::parallel_cholesky(plan, a, panels); });
    else
      exec.factorize(a);
    const CscMatrix l = parallel_plan
                            ? panels_to_csc(layout, panels,
                                            plan.sets.factor_pattern())
                            : exec.factor_csc();
    const bool chol_same = parallel_plan && l.equals(exec.factor_csc());

    const std::vector<value_t> b(static_cast<std::size_t>(l.cols()), 1.0);
    std::vector<value_t> x(b);
    double t_seq_solve = 0.0;
    double t_par_solve = 0.0;
    bool solve_same = false;
    if (parallel_plan) {
      std::vector<value_t> tail(
          static_cast<std::size_t>(solvers::max_tail_rows(layout)));
      t_seq_solve = bench::bench_seconds([&] {
        std::copy(b.begin(), b.end(), x.begin());
        solvers::panel_forward_solve(layout, panels, x, tail);
        solvers::panel_backward_solve(layout, panels, x, tail);
      });
      const std::vector<value_t> want = x;
      core::Workspace ws;
      t_par_solve = bench::bench_seconds([&] {
        std::copy(b.begin(), b.end(), x.begin());
        parallel::parallel_panel_solve_batch(plan, panels, x, 1, ws);
      });
      solve_same = std::memcmp(x.data(), want.data(),
                               x.size() * sizeof(value_t)) == 0;
    }

    const parallel::AggregateSchedule col_sched =
        parallel::coarsen_schedule_columns(
            l, parallel::level_schedule_columns(l),
            parallel::CoarsenOptions{false, false});
    const parallel::UpdateSlotMap col_umap = parallel::update_slots_columns(l);
    std::vector<value_t> terms(static_cast<std::size_t>(col_umap.slots()));
    const double t_seq_tri = bench::bench_seconds([&] {
      std::copy(b.begin(), b.end(), x.begin());
      solvers::trisolve_naive(l, x);
    });
    const double t_par_tri = bench::bench_seconds([&] {
      std::copy(b.begin(), b.end(), x.begin());
      parallel::parallel_trisolve(l, col_sched, col_umap, x, terms);
    });

    const auto ratio = [](double seq, double par) {
      return par > 0.0 ? seq / par : 0.0;
    };
    const auto bits = [&](bool same) {
      return !parallel_plan ? "-" : same ? "yes" : "NO";
    };
    std::printf(
        "%2d %-14s | %6d %10.5f %10.5f %6.2fx | %10.4f %10.4f %6.2fx | "
        "%10.5f %10.5f %6.2fx | %5s %5s\n",
        spec.id, spec.paper_name.c_str(), col_sched.levels(), t_seq_tri,
        t_par_tri, ratio(t_seq_tri, t_par_tri), t_seq_chol, t_par_chol,
        ratio(t_seq_chol, t_par_chol), t_seq_solve, t_par_solve,
        ratio(t_seq_solve, t_par_solve), bits(chol_same), bits(solve_same));
    std::fflush(stdout);
  }
  bench::print_rule(width);
  std::printf(
      "note: the wavefront trisolve pays barriers + slot traffic "
      "(level-private, deterministic — no atomics); it wins only when "
      "levels are wide relative to the core count.\n");
  return 0;
}
