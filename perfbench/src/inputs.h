// Seeded inputs of the four workloads. Everything a run feeds the program
// is built here, by the library's own generators (gen::, order::, lu::),
// before any timing starts. The seed fixes matrix values (except the
// power grid's, which are part of its fixed network), right-hand sides and
// visit orders; sparsity patterns are fixed per workload, so seeds change
// the inputs but not the work of a step.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sparse/csc.h"
#include "util/common.h"

namespace perfbench {

using sympiler::CscMatrix;
using sympiler::index_t;
using sympiler::value_t;

enum class Workload { kNewtonMesh, kTransientTrisolve, kPatternChurn, kRestartStore };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload w);

/// splitmix64: the benchmark's one random stream (portable, unlike the
/// standard distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Independent seed for a named sub-stream.
  [[nodiscard]] static std::uint64_t derive(std::uint64_t seed,
                                            std::uint64_t stream);

 private:
  std::uint64_t state_;
};

/// FNV-1a over raw bytes, chained through `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);
[[nodiscard]] std::uint64_t hash_matrix(const CscMatrix& m, std::uint64_t h);
[[nodiscard]] std::uint64_t hash_values(const std::vector<value_t>& v,
                                        std::uint64_t h);

/// newton_mesh: FEM Newton refactorization on one fixed nested-dissection
/// mesh. Step k reassembles the values from the Newton state, factors, and
/// solves against rhs[k % rhs.size()].
struct NewtonInputs {
  CscMatrix base;                        ///< pattern + reference values
  std::vector<value_t> state0;           ///< seeded initial Newton state
  std::vector<std::vector<value_t>> rhs; ///< seeded right-hand sides

  /// Values of the step matrix for a Newton state (same pattern as base).
  void reassemble(const std::vector<value_t>& state, CscMatrix& out) const;
  /// Newton update of the state from a step's solution.
  static void advance(std::vector<value_t>& state,
                      const std::vector<value_t>& x);
};

/// transient_trisolve: forward solves L x = b on the LU factor of a fixed
/// power grid, with a fixed injection pattern and seeded per-step
/// injection values.
struct TrisolveInputs {
  CscMatrix l;                                  ///< lower factor
  std::vector<index_t> beta;                    ///< injection buses
  std::vector<std::vector<value_t>> injections; ///< |beta| values per step

  /// Dense b of step k (zero outside beta).
  void fill_rhs(std::size_t step, std::vector<value_t>& b) const;
};

/// A family of SPD patterns visited through one Solver (pattern_churn) or
/// re-solved after every restart (restart_store).
struct FamilyInputs {
  static constexpr std::size_t kRhsPerPattern = 4;
  std::vector<std::string> names;
  std::vector<CscMatrix> matrices;           ///< lower triangles
  std::vector<std::vector<value_t>> rhs;     ///< kRhsPerPattern per pattern
  std::vector<std::uint32_t> visits;         ///< pattern index per step

  /// Right-hand side of step k, which solves pattern p.
  [[nodiscard]] const std::vector<value_t>& rhs_for(std::size_t p, std::size_t k) const {
    return rhs[p * kRhsPerPattern + k % kRhsPerPattern];
  }
};

struct Inputs {
  Workload workload = Workload::kNewtonMesh;
  std::uint64_t seed = 0;
  NewtonInputs newton;
  TrisolveInputs trisolve;
  FamilyInputs family;
  std::uint64_t hash = 0;  ///< fingerprint of everything above
};

/// Build the inputs of `w` from `seed`. Deterministic: the same seed gives
/// the same inputs (and hash), on any host.
[[nodiscard]] Inputs make_inputs(Workload w, std::uint64_t seed);

/// Zipf visit order over `patterns` ranks: P(rank r) ~ 1 / r^exponent.
[[nodiscard]] std::vector<std::uint32_t> zipf_visits(std::size_t patterns,
                                                     double exponent,
                                                     std::size_t count,
                                                     std::uint64_t seed);

}  // namespace perfbench
