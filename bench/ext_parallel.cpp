// Extension bench: level-set (wavefront) parallel executors — the paper's
// stated extension to shared memory (realized by the ParSy follow-on).
// Compares sequential executors against the OpenMP level-set versions,
// run over identity aggregates (one task per item at its level, no chain
// fusion or bundling) so the rows time the plain wavefront.
#include <cstdio>
#include <vector>

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

#include "bench/common.h"
#include "core/cholesky_executor.h"
#include "core/inspector.h"
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
  bench::print_rule(116);
  std::printf("%2s %-14s | %8s %12s %12s %8s | %12s %12s %8s\n", "id", "name",
              "levels", "seq-tri(s)", "par-tri(s)", "speedup", "seq-chol(s)",
              "par-chol(s)", "speedup");
  bench::print_rule(116);

  for (const int id : {2, 8, 10, 11}) {
    const auto& spec = gen::suite_problem(id);
    const CscMatrix a = spec.make();
    core::SympilerOptions opt;
    opt.vsblock_min_avg_size = 0.0;
    opt.vsblock_min_avg_width = 0.0;  // supernodal path for all
    const core::CholeskySets sets = core::inspect_cholesky(a, opt);

    core::CholeskyExecutor exec(a, opt);
    const double t_seq_chol = bench::bench_seconds([&] { exec.factorize(a); });

    const parallel::CoarsenOptions identity{false, false};
    std::vector<index_t> dep_src(sets.updates.refs.size());
    for (std::size_t u = 0; u < dep_src.size(); ++u)
      dep_src[u] = sets.updates.refs[u].d;
    const parallel::AggregateSchedule sn_sched =
        parallel::coarsen_schedule_supernodes(
            sets.blocks, sets.sym.parent, sets.updates.ptr, dep_src,
            parallel::level_schedule_supernodes(sets.blocks, sets.sym.parent),
            identity);
    std::vector<value_t> panels(
        static_cast<std::size_t>(sets.layout.total_values()));
    const double t_par_chol = bench::bench_seconds(
        [&] { parallel::parallel_cholesky(sets, sn_sched, a, panels); });

    const CscMatrix l =
        panels_to_csc(sets.layout, panels, sets.sym.l_pattern);
    const parallel::AggregateSchedule col_sched =
        parallel::coarsen_schedule_columns(
            l, parallel::level_schedule_columns(l), identity);
    const parallel::UpdateSlotMap col_umap = parallel::update_slots_columns(l);
    std::vector<value_t> terms(static_cast<std::size_t>(col_umap.slots()));
    const std::vector<value_t> b(static_cast<std::size_t>(l.cols()), 1.0);
    std::vector<value_t> x(b);
    const double t_seq_tri = bench::bench_seconds([&] {
      std::copy(b.begin(), b.end(), x.begin());
      solvers::trisolve_naive(l, x);
    });
    const double t_par_tri = bench::bench_seconds([&] {
      std::copy(b.begin(), b.end(), x.begin());
      parallel::parallel_trisolve(l, col_sched, col_umap, x, terms);
    });

    std::printf(
        "%2d %-14s | %8d %12.5f %12.5f %7.2fx | %12.4f %12.4f %7.2fx\n",
        spec.id, spec.paper_name.c_str(), col_sched.levels(), t_seq_tri,
        t_par_tri, t_seq_tri / t_par_tri, t_seq_chol, t_par_chol,
        t_seq_chol / t_par_chol);
    std::fflush(stdout);
  }
  bench::print_rule(116);
  std::printf(
      "note: the wavefront trisolve pays barriers + slot traffic "
      "(level-private, deterministic — no atomics); it wins only when "
      "levels are wide relative to the core count.\n");
  return 0;
}
