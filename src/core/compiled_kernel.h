// Compiled-kernel artifact riding on a cached ExecutionPlan.
//
// PlanCompiler (plan_compiler.h) lowers a plan to pattern-specialized C
// and compiles it when a caller asks; the resulting module is published
// into the plan's JitSlot. The slot is the one mutable corner of an
// otherwise immutable plan: write-once (first publisher wins, permanent
// failure recorded the same way), guarded by its own mutex so executors on
// any thread can adopt the kernel mid-stream. The plan's bytes() counts
// the published artifact, and dropping the plan drops the dlopen'd module.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/jit.h"

namespace sympiler::core {

/// Entry point of a plan-compiled Cholesky kernel. Arguments:
/// (Ap, Ai, Ax) of the lower triangle of A, the executor's factor value
/// storage (simplicial: L values in the plan's pattern order; supernodal:
/// the dense panels),
/// value scratch (simplicial: the length-n accumulation column;
/// supernodal: the max_panel_rows x max_panel_width update tile), and the
/// length-n integer scatter map. Returns 0, or -1 - c on a non-positive
/// pivot, where c is the failing column (simplicial) or the first column
/// of the failing supernode (supernodal); the pivot value is left where
/// the interpreter reads it (value scratch entry c, or the first entry of
/// the supernode's panel).
/// These are exactly the buffers CholeskyExecutor's plan-sized Workspace
/// already holds, so dispatching to the kernel allocates nothing.
using PlanCholeskyFn = int (*)(const int*, const int*, const double*, double*,
                               double*, int*);

/// Entry point of a plan-compiled triangular solve: (Lp, Li, Lx) of L, the
/// RHS/solution vector, and the max_tail gather scratch (unused — and
/// possibly null — on the pruned shape).
using PlanTriSolveFn = void (*)(const int*, const int*, const double*,
                                double*, double*);

/// One compiled plan kernel: the loaded module plus its provenance.
struct CompiledKernel {
  JitModule module;
  std::string symbol;
  std::size_t source_bytes = 0;   ///< size of the emitted translation unit
  double compile_seconds = 0.0;   ///< wall time in the host compiler

  template <typename Fn>
  [[nodiscard]] Fn entry() const {
    return module.entry<Fn>();
  }

  /// Eviction weight of the artifact. The mapped .so size is not portably
  /// observable, so the source size stands in — the two track each other
  /// (both scale with the baked pattern arrays).
  [[nodiscard]] std::size_t bytes() const {
    return sizeof(CompiledKernel) + symbol.size() + source_bytes;
  }
};

/// Write-once, thread-safe kernel slot embedded in every plan (via
/// shared_ptr so plans stay movable). All methods are const: the slot is
/// logically a compile cache, mutable inside an immutable plan.
class JitSlot {
 public:
  /// The published kernel, or null while interpreting.
  [[nodiscard]] std::shared_ptr<const CompiledKernel> kernel() const {
    std::lock_guard<std::mutex> lock(mu_);
    return kernel_;
  }

  /// First publisher wins; later publishes (and publishes after a recorded
  /// failure) are dropped. Returns whether this call installed the kernel.
  bool publish(std::shared_ptr<const CompiledKernel> kernel) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (kernel_ != nullptr || failed_) return false;
    kernel_ = std::move(kernel);
    return true;
  }

  /// Record a permanent compile failure (missing compiler, source over the
  /// size cap, compiler error) so later compile() calls do not retry.
  void mark_failed(std::string reason) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (kernel_ != nullptr || failed_) return;
    failed_ = true;
    reason_ = std::move(reason);
  }

  [[nodiscard]] bool failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

  [[nodiscard]] std::string failure() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reason_;
  }

  /// Artifact weight for the owning plan's bytes() (0 until published).
  [[nodiscard]] std::size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return kernel_ != nullptr ? kernel_->bytes() : 0;
  }

 private:
  mutable std::mutex mu_;
  mutable std::shared_ptr<const CompiledKernel> kernel_;
  mutable bool failed_ = false;
  mutable std::string reason_;
};

}  // namespace sympiler::core
