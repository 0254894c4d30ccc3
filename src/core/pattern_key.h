// Structural cache key for symbolic inspection results.
//
// The paper's central decoupling pays symbolic analysis once per sparsity
// pattern; a PatternKey identifies that pattern (and the inspection
// configuration) so inspection sets can be cached and shared across matrix
// instances whose values differ but whose structure recurs — the FEM
// Newton / circuit transient setting of section 1.2.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/options.h"
#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::core {

/// Identity of one symbolic-inspection problem: the matrix shape/pattern
/// (and for triangular solve, the RHS pattern) plus the SympilerOptions
/// fields that change what the inspector produces.
///
/// The pattern itself is captured by two independent 64-bit hashes over
/// colptr/rowind (and beta) rather than a copy of the index arrays: keys
/// stay O(1)-sized, and a false match requires a simultaneous collision of
/// both 64-bit streams at equal (n, nnz) — negligible against the lifetime
/// of any cache this library can hold.
struct PatternKey {
  index_t rows = 0;
  index_t cols = 0;
  index_t nnz = 0;
  index_t rhs_nnz = 0;               ///< |beta| for trisolve keys, 0 otherwise
  std::uint64_t structure_hash = 0;  ///< FNV-1a over the index arrays
  std::uint64_t structure_hash2 = 0; ///< independent second stream
  std::uint64_t config_hash = 0;     ///< over the inspection-relevant options

  friend bool operator==(const PatternKey&, const PatternKey&) = default;

  /// e.g. "PatternKey{100x100, nnz=460, rhs=3, 0x1a2b..., cfg=0x3c4d...}"
  [[nodiscard]] std::string to_string() const;
};

/// Hash functor for unordered containers keyed by PatternKey.
struct PatternKeyHash {
  [[nodiscard]] std::size_t operator()(const PatternKey& k) const noexcept;
};

/// Hash of the SympilerOptions fields the inspectors read. Every field is
/// folded in: a knob that only affects the numeric phase costs at worst a
/// redundant cache entry, while omitting one that steers inspection would
/// serve wrong sets.
[[nodiscard]] std::uint64_t hash_options(const SympilerOptions& opt);

/// Key of a Cholesky plan of a_lower under opt.
[[nodiscard]] PatternKey cholesky_pattern_key(const CscMatrix& a_lower,
                                              const SympilerOptions& opt);

/// Key for inspect_trisolve(l, beta, opt). The RHS pattern participates:
/// the reach-set depends on which entries of b are nonzero.
[[nodiscard]] PatternKey trisolve_pattern_key(const CscMatrix& l,
                                              std::span<const index_t> beta,
                                              const SympilerOptions& opt);

}  // namespace sympiler::core
