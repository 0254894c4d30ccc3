// PlanCompiler: lower a cached ExecutionPlan to pattern-specialized C and
// compile it through the existing JIT machinery.
//
// This is the codegen half of the paper, and the repo's only emitter:
// instead of re-running the inspectors, emission consumes the plan's own
// inspection sets — the ereach/update chains, supernode extents, panel
// offsets, and the aggregate schedule are baked into the instruction stream
// as constants (docs/codegen.md maps each paper transformation to the
// emission that implements it). The simplicial Cholesky shape
// additionally bakes the replayed per-update column cursors (updStart)
// that the interpreter chases through its `next` array at run time, so
// the compiled kernel does strictly less memory traffic than the
// interpreter on the identical arithmetic.
//
// Bit-identity contract: every emitted loop nest reproduces the exact
// operation order of the interpreting executor (cholesky_executor.cpp /
// trisolve_executor.cpp), including the specialized peels; the blocked
// blas tier is pinned bit-identical to the _ref scalar order
// (blas/kernels.h), so emitting _ref-order dense helpers and compiling at
// -ffp-contract=off (jit.cpp) makes compiled results bit-identical to the
// interpreters — pinned by tests/test_codegen.cpp.
//
// Compiled kernels are published into the plan's JitSlot
// (compiled_kernel.h): compiled once per PatternKey, shared by every
// executor interpreting the plan, weighed and evicted with the plan by the
// PlanCache (symbolic_cache.h::refresh_bytes).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/compiled_kernel.h"
#include "core/execution_plan.h"
#include "sparse/csc.h"

namespace sympiler::core {

class PlanCompiler {
 public:
  static constexpr const char* kCholeskySymbol = "sym_plan_cholesky";
  static constexpr const char* kTriSolveSymbol = "sym_plan_trisolve";

  /// Whether the facades should lower this plan at all: sequential paths
  /// only. Parallel plans keep their level-set interpreters — a serial
  /// compiled kernel would forfeit the parallelism (their sequential
  /// interpretation still compiles via compile(), for tests and tools).
  [[nodiscard]] static bool eligible(const CholeskyPlan& plan);
  [[nodiscard]] static bool eligible(const TriSolvePlan& plan);

  /// Emit the pattern-specialized C for a plan (no compilation). The
  /// trisolve shapes bake literal column offsets of L, so the factor the
  /// plan was built against must be supplied.
  [[nodiscard]] static std::string emit(const CholeskyPlan& plan);
  [[nodiscard]] static std::string emit(const TriSolvePlan& plan,
                                        const CscMatrix& l);

  /// Emit + compile + publish into plan.jit (first publisher wins). On
  /// any failure — no host compiler, source over `max_source_bytes`
  /// (0 = uncapped), compiler error — the slot records a permanent
  /// failure and null is returned; numeric execution falls back to the
  /// interpreter, never throws. Idempotent: returns the already-published
  /// kernel when one exists.
  static std::shared_ptr<const CompiledKernel> compile(
      const CholeskyPlan& plan, std::size_t max_source_bytes = 0);
  static std::shared_ptr<const CompiledKernel> compile(
      const TriSolvePlan& plan, const CscMatrix& l,
      std::size_t max_source_bytes = 0);
};

}  // namespace sympiler::core
