#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "gen/generators.h"
#include "lu/lu.h"
#include "order/rcm.h"
#include "sparse/ops.h"

namespace perfbench {

using sympiler::gen::GridOrder;
namespace gen = sympiler::gen;

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kNewtonMesh, Workload::kTransientTrisolve,
                     Workload::kPatternChurn, Workload::kRestartStore})
    if (name == to_string(w)) return w;
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kNewtonMesh: return "newton_mesh";
    case Workload::kTransientTrisolve: return "transient_trisolve";
    case Workload::kPatternChurn: return "pattern_churn";
    case Workload::kRestartStore: return "restart_store";
  }
  return "?";
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::derive(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return rng.next();
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_matrix(const CscMatrix& m, std::uint64_t h) {
  const index_t dims[2] = {m.rows(), m.cols()};
  h = fnv1a(dims, sizeof(dims), h);
  h = fnv1a(m.colptr.data(), m.colptr.size() * sizeof(index_t), h);
  h = fnv1a(m.rowind.data(), m.rowind.size() * sizeof(index_t), h);
  return fnv1a(m.values.data(), m.values.size() * sizeof(value_t), h);
}

std::uint64_t hash_values(const std::vector<value_t>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(value_t), h);
}

// ------------------------------------------------------------ newton_mesh

void NewtonInputs::reassemble(const std::vector<value_t>& state,
                              CscMatrix& out) const {
  // Mock FEM assembly (examples/fem_newton): a state-dependent coefficient
  // per column; the diagonal keeps a margin, so every step stays SPD.
  for (index_t j = 0; j < base.cols(); ++j) {
    const value_t c = 1.0 + 0.05 * std::tanh(state[static_cast<std::size_t>(j)]);
    for (index_t p = base.col_begin(j); p < base.col_end(j); ++p)
      out.values[static_cast<std::size_t>(p)] =
          base.values[static_cast<std::size_t>(p)] *
          (base.rowind[static_cast<std::size_t>(p)] == j ? 1.0 + 0.1 * c : c);
  }
}

void NewtonInputs::advance(std::vector<value_t>& state,
                           const std::vector<value_t>& x) {
  value_t scale = 0.0;
  for (const value_t v : x) scale = std::max(scale, std::abs(v));
  if (scale == 0.0) scale = 1.0;
  for (std::size_t i = 0; i < state.size(); ++i)
    state[i] = 0.5 * state[i] + 2.0 * x[i] / scale;
}

// ------------------------------------------------------ transient_trisolve

void TrisolveInputs::fill_rhs(std::size_t step, std::vector<value_t>& b) const {
  b.assign(static_cast<std::size_t>(l.cols()), 0.0);
  const std::vector<value_t>& v = injections[step % injections.size()];
  for (std::size_t k = 0; k < beta.size(); ++k)
    b[static_cast<std::size_t>(beta[k])] = v[k];
}

namespace {

constexpr std::size_t kNewtonRhs = 32;
constexpr std::size_t kInjectionSets = 256;
/// Enough visits for the longest run the CLI accepts (60 s) at the
/// fastest step of either family workload.
constexpr std::size_t kChurnVisits = 60000;
constexpr std::size_t kRestarts = 4000;
/// Fixed network of transient_trisolve: power-grid topology and
/// conductances, and the injection buses (the run seed varies the
/// injection values only).
constexpr std::uint64_t kGridTopologySeed = 11;
constexpr std::uint64_t kInjectionBusSeed = 5;

struct PatternSpec {
  const char* name;
  std::function<CscMatrix(std::uint64_t)> make;
};

/// pattern_churn: 32 patterns across the structural regimes the planner
/// keys on — nested-dissection meshes and 3-D grids (supernodal, the
/// larger ones parallel), dof-block structural assemblies, and natural-
/// order strips and bands (simplicial). Listed in Zipf rank order, kinds
/// interleaved so the hot set mixes plan kinds.
std::vector<PatternSpec> churn_family() {
  auto g2 = [](index_t nx, index_t ny, GridOrder o) {
    return [=](std::uint64_t) { return gen::grid2d_laplacian(nx, ny, o); };
  };
  auto g3 = [](index_t k) {
    return [=](std::uint64_t) { return gen::grid3d_laplacian(k, k, k); };
  };
  auto st = [](index_t nx, index_t dofs) {
    return [=](std::uint64_t s) {
      return gen::block_structural(nx, nx, dofs, s);
    };
  };
  auto band = [](index_t n, index_t hb) {
    return [=](std::uint64_t s) { return gen::banded_spd(n, hb, s); };
  };
  const GridOrder nd = GridOrder::NestedDissection;
  const GridOrder nat = GridOrder::Natural;
  return {
      {"grid2d_64_nd", g2(64, 64, nd)},      {"strip_12x400", g2(12, 400, nat)},
      {"struct_28x3", st(28, 3)},            {"grid3d_10", g3(10)},
      {"grid2d_80_nd", g2(80, 80, nd)},      {"band_4000_8", band(4000, 8)},
      {"struct_36x2", st(36, 2)},            {"strip_16x300", g2(16, 300, nat)},
      {"grid2d_48_nd", g2(48, 48, nd)},      {"grid3d_9", g3(9)},
      {"struct_24x3", st(24, 3)},            {"strip_8x600", g2(8, 600, nat)},
      {"grid2d_96_nd", g2(96, 96, nd)},      {"band_6000_6", band(6000, 6)},
      {"struct_32x3", st(32, 3)},            {"grid3d_11", g3(11)},
      {"grid2d_56_nd", g2(56, 56, nd)},      {"strip_20x300", g2(20, 300, nat)},
      {"struct_30x2", st(30, 2)},            {"band_3000_12", band(3000, 12)},
      {"grid2d_72_nd", g2(72, 72, nd)},      {"grid3d_8", g3(8)},
      {"struct_20x3", st(20, 3)},            {"strip_10x500", g2(10, 500, nat)},
      {"grid2d_88_nd", g2(88, 88, nd)},      {"struct_40x2", st(40, 2)},
      {"strip_14x400", g2(14, 400, nat)},    {"grid3d_12", g3(12)},
      {"grid2d_40_nd", g2(40, 40, nd)},      {"struct_36x3", st(36, 3)},
      {"band_5000_10", band(5000, 10)},      {"strip_24x200", g2(24, 200, nat)},
  };
}

/// restart_store: six nested-dissection meshes of ~10^4 unknowns (parallel
/// supernodal plans of ~3.3 MiB, at or under the store's 4 MiB
/// always-persist floor, so what is stored never depends on the build
/// timer) and two natural-order strips whose memory-bound simplicial plans
/// (~9 MiB) the profitability gate declines, so every restart replans
/// them. Near-equal costs within each group keep p50 inside the loaded
/// steps and p90 inside the replanned ones.
std::vector<PatternSpec> restart_family() {
  auto g2 = [](index_t nx, index_t ny, GridOrder o) {
    return [=](std::uint64_t) { return gen::grid2d_laplacian(nx, ny, o); };
  };
  const GridOrder nd = GridOrder::NestedDissection;
  const GridOrder nat = GridOrder::Natural;
  return {
      {"grid2d_100x100_nd", g2(100, 100, nd)}, {"grid2d_96x104_nd", g2(96, 104, nd)},
      {"grid2d_104x96_nd", g2(104, 96, nd)},   {"grid2d_92x108_nd", g2(92, 108, nd)},
      {"grid2d_108x92_nd", g2(108, 92, nd)},   {"grid2d_90x110_nd", g2(90, 110, nd)},
      {"strip_30x600", g2(30, 600, nat)},      {"strip_31x580", g2(31, 580, nat)},
  };
}

FamilyInputs make_family(const std::vector<PatternSpec>& specs,
                         std::uint64_t seed) {
  FamilyInputs f;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    f.names.emplace_back(specs[i].name);
    f.matrices.push_back(specs[i].make(Rng::derive(seed, 100 + i)));
    for (std::size_t j = 0; j < FamilyInputs::kRhsPerPattern; ++j)
      f.rhs.push_back(gen::dense_rhs(f.matrices.back().cols(),
                                     Rng::derive(seed, 1000 + 16 * i + j)));
  }
  return f;
}

}  // namespace

std::vector<std::uint32_t> zipf_visits(std::size_t patterns, double exponent,
                                       std::size_t count, std::uint64_t seed) {
  std::vector<double> cdf(patterns);
  double total = 0.0;
  for (std::size_t r = 0; r < patterns; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  Rng rng(seed);
  std::vector<std::uint32_t> visits(count);
  for (auto& v : visits) {
    const double u = rng.uniform() * total;
    v = static_cast<std::uint32_t>(
        std::min<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                  cdf.begin(),
                              patterns - 1));
  }
  return visits;
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  in.seed = seed;
  std::uint64_t h = fnv1a(&seed, sizeof(seed));
  switch (w) {
    case Workload::kNewtonMesh: {
      NewtonInputs& ni = in.newton;
      // 10^4 unknowns, 2.9e5 nnz(L): plans ParallelSupernodal at 2 threads.
      ni.base = gen::grid2d_laplacian(100, 100, GridOrder::NestedDissection);
      ni.state0 = gen::dense_rhs(ni.base.cols(), Rng::derive(seed, 1));
      for (std::size_t k = 0; k < kNewtonRhs; ++k)
        ni.rhs.push_back(gen::dense_rhs(ni.base.cols(), Rng::derive(seed, 10 + k)));
      h = hash_matrix(ni.base, h);
      h = hash_values(ni.state0, h);
      for (const auto& r : ni.rhs) h = hash_values(r, h);
      break;
    }
    case Workload::kTransientTrisolve: {
      TrisolveInputs& ti = in.trisolve;
      // 20k buses with 4k cross links, ordered by minimum degree (hub
      // buses eliminate late, as KLU's AMD would), factored by the GP LU.
      // The network is fixed; the seed drives the injection values, as the
      // sources of a transient do.
      const index_t n = 20000;
      const CscMatrix raw = gen::power_grid(n, n / 5, kGridTopologySeed);
      const std::vector<index_t> perm = sympiler::order::minimum_degree(raw);
      const CscMatrix lower = sympiler::permute_symmetric_lower(raw, perm);
      const CscMatrix a = sympiler::symmetric_full_from_lower(lower);
      sympiler::lu::LuFactor lu(a);
      lu.factorize(a);
      ti.l = lu.lower();
      const std::vector<value_t> b0 = gen::sparse_rhs(n, 24, kInjectionBusSeed);
      for (index_t i = 0; i < n; ++i)
        if (b0[static_cast<std::size_t>(i)] != 0.0) ti.beta.push_back(i);
      for (std::size_t k = 0; k < kInjectionSets; ++k) {
        Rng rng(Rng::derive(seed, 1000 + k));
        std::vector<value_t> v(ti.beta.size());
        for (auto& x : v) x = 0.5 + rng.uniform();
        ti.injections.push_back(std::move(v));
      }
      h = hash_matrix(ti.l, h);
      h = fnv1a(ti.beta.data(), ti.beta.size() * sizeof(index_t), h);
      for (const auto& v : ti.injections) h = hash_values(v, h);
      break;
    }
    case Workload::kPatternChurn:
    case Workload::kRestartStore: {
      const bool churn = w == Workload::kPatternChurn;
      in.family = make_family(churn ? churn_family() : restart_family(), seed);
      FamilyInputs& f = in.family;
      if (churn) {
        f.visits = zipf_visits(f.matrices.size(), 1.0, kChurnVisits,
                               Rng::derive(seed, 3));
      } else {
        // Every restart solves the whole family in one fixed order: the
        // allocation sequence then repeats, and so does the step cost.
        for (std::size_t r = 0; r < kRestarts; ++r)
          for (std::uint32_t p = 0; p < f.matrices.size(); ++p) f.visits.push_back(p);
      }
      for (const auto& m : f.matrices) h = hash_matrix(m, h);
      for (const auto& r : f.rhs) h = hash_values(r, h);
      h = fnv1a(f.visits.data(), f.visits.size() * sizeof(std::uint32_t), h);
      break;
    }
  }
  in.hash = h;
  return in;
}

}  // namespace perfbench
