// Tuning knobs of the code generator — the thresholds the paper describes
// (and that bench/ablation_thresholds sweeps).
#pragma once

#include <string>

#include "util/common.h"

namespace sympiler::core {

struct SympilerOptions {
  // Inspector-guided transformations (paper section 2.3).
  bool vs_block = true;
  bool vi_prune = true;
  // Low-level transformations of the triangular solve (paper section
  // 2.4): the peeled 4-way unrolled column body of the pruned solve
  // (peel_colcount), and the peeled single-column blocks and two-column
  // tail pairing of the blocked solve. The Cholesky reads it nowhere:
  // every supernodal update there is one trapezoid tile and its scatter.
  bool low_level = true;

  /// VS-Block is applied only when the participating-supernode size
  /// metric (average panel rows of width>=2 supernodes, weighted by the
  /// fraction of columns they cover — see inspector.cpp) reaches this
  /// threshold. The paper hand-tunes its variant of this knob to 160 on
  /// the SuiteSparse suite (section 4.2); this default is hand-tuned the
  /// same way on the synthetic suite and swept by
  /// bench/ablation_thresholds.
  double vsblock_min_avg_size = 4.0;

  /// Companion VS-Block condition: mean width (columns) of participating
  /// supernodes. Width-2..3 supernodes do not amortize the gather-buffer
  /// traffic of the blocked kernels (the paper's gyro/gyro_k case: "the
  /// average supernode size is too small and thus does not improve
  /// performance").
  double vsblock_min_avg_width = 4.0;

  /// The pruned triangular solve peels reached columns with more than
  /// this many below-diagonal entries into a 4-way unrolled body (paper
  /// Figure 1e uses 2). It changes speed, never bits.
  index_t peel_colcount = 2;

  /// Cap on supernode panel width (bounds temporary storage), for the
  /// fundamental partition and for the relaxed amalgamation supernodal
  /// plans always apply (graph/supernodes.h).
  index_t max_supernode_width = 256;

  /// Source cap callers of PlanCompiler::compile pass, in KiB: baked
  /// pattern arrays scale with nnz(L), and very large patterns would pay
  /// minutes of host-compiler time for a serial kernel. The emitted-code
  /// audit skips plans whose estimated source is far above it.
  static constexpr index_t jit_max_source_kb = 4096;

  // Failure-domain knobs (docs/robustness.md). None of these are hashed
  // into the plan cache key: they change how a numeric call fails or
  // retries, never what the plan contains.

  /// Validate CSC structure at the facade boundary (sorted in-bounds
  /// indices, present diagonal, lower-triangular shape) and reject with
  /// kInvalidInput instead of corrupting deep in an executor. O(nnz) per
  /// facade factor()/construction, allocation-free.
  bool validate_input = true;
  /// Additionally scan numeric values for NaN/Inf at the boundary (every
  /// facade factor() pays one pass over the values; off by default).
  bool scan_values = false;
  /// Diagonal-shift retry ladder: when factor() hits a numeric breakdown,
  /// retry on A + sigma*I up to this many times with a growing sigma (the
  /// classic near-singular rescue; the applied shift is recorded in the
  /// FactorReport). 0 = fail fast. Retries allocate (one shifted copy) —
  /// acceptable on the degraded path, which is off the steady state.
  index_t shift_attempts = 0;
  /// Promote the debug-only Workspace borrow guard to release builds for
  /// facades configured with it: concurrent solve() on one instance then
  /// throws kResourceExhausted instead of silently corrupting scratch.
  bool guard_workspace = false;

  /// Run the static plan verifier (verify/verify.h) on every freshly built
  /// plan: dependence closure of the schedules, symbolic happens-before
  /// replay of the slot maps, workspace coverage. A finding throws
  /// kPlanInvalid from plan time — before any numeric code touches the
  /// plan. O(plan) work on the cold path only; warm cache hits never
  /// re-verify. On by default when the library is a Debug build
  /// (library_debug_build()), opt-in for Release. Not hashed into the
  /// cache key: it changes whether a plan is checked, never what the plan
  /// contains.
  bool verify_plan = library_debug_build();

  /// Directory of the on-disk plan store (core/plan_store.h). Empty =
  /// persistence off. When set, cache misses first try to load a persisted
  /// plan (re-verified before publication) and freshly built plans are
  /// written behind the facade's back. Not hashed into the cache key:
  /// where a plan is stored never changes what the plan contains — two
  /// Solvers with different store dirs must share one in-memory plan per
  /// pattern.
  std::string plan_store_dir;
};

}  // namespace sympiler::core
