// Table 2 reproduction: the matrix suite. Prints the paper's columns
// (problem id, name, n, nnz(A)) for both the paper's SuiteSparse matrices
// and our synthetic analogues, extended with the structural quantities the
// transformations key on: nnz(L), fundamental supernode count (the
// partition the VS-Block gate reads, before amalgamation), the VS-Block
// profitability metric, and the average column count nnz(L)/n.
#include <cstdio>

#include "bench/common.h"
#include "core/planner.h"
#include "gen/suite.h"

using namespace sympiler;

int main() {
  std::printf("Table 2: matrix suite (paper values vs synthetic analogues)\n");
  bench::print_rule(132);
  std::printf(
      "%2s %-14s %27s | %8s %9s %11s %8s %9s %7s %5s  %s\n", "id", "name",
      "paper n(1e3)/nnz(1e6)", "n", "nnz(A)", "nnz(L)", "nsuper",
      "vsb-size", "nnzL/n", "VSB?", "generator");
  bench::print_rule(132);
  core::PlannerConfig config;
  config.enable_parallel = false;
  const core::Planner planner(config);
  for (const auto& spec : gen::suite()) {
    const CscMatrix a = spec.make();
    const core::CholeskyPlan plan = planner.plan_cholesky(a, core::PatternKey{});
    const core::CholeskySets& sets = plan.sets;
    std::printf(
        "%2d %-14s %15d / %-9.3f | %8d %9d %11lld %8d %9.1f %7.1f %5s  %s\n",
        spec.id, spec.paper_name.c_str(), spec.paper_n_thousands,
        spec.paper_nnz_millions, a.cols(), a.nnz(),
        static_cast<long long>(sets.sym.fill_nnz),
        plan.evidence.fundamental_supernodes,
        sets.avg_supernode_size,
        a.cols() > 0 ? static_cast<double>(sets.sym.fill_nnz) / a.cols()
                     : 0.0,
        sets.vs_block_profitable ? "yes" : "no", spec.generator.c_str());
    std::fflush(stdout);
  }
  bench::print_rule(132);
  std::printf(
      "Sizes are scaled to laptop/CI scale (the generator column names each\n"
      "substitute; src/gen/suite.cpp builds them); the suite spans the same\n"
      "structural regimes as the paper's selection.\n");
  return 0;
}
