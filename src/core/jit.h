// JIT back end of the PlanCompiler (plan_compiler.h): write the emitted
// translation unit to a scratch directory, invoke the host compiler to
// produce a shared object, dlopen it, and hand back the kernel entry
// point. The scratch directory is removed before compile() returns or
// throws. The entry-point types live beside the kernel artifact in
// compiled_kernel.h.
//
// The paper reports this cost explicitly (section 4.3: code generation and
// compilation cost 6-197x one numeric triangular solve, <= 0.3x one
// numeric Cholesky); bench/inspector_overhead reproduces that measurement.
#pragma once

#include <memory>
#include <string>

#include "util/common.h"

namespace sympiler::core {

class JitModule {
 public:
  JitModule() = default;
  JitModule(JitModule&&) noexcept;
  JitModule& operator=(JitModule&&) noexcept;
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;
  ~JitModule();

  /// True if a host compiler is available (checked once, cached).
  [[nodiscard]] static bool compiler_available();

  /// Compile `source` and resolve `symbol`. Throws std::runtime_error on
  /// compiler or loader failure (with the compiler's stderr in the
  /// message).
  [[nodiscard]] static JitModule compile(const std::string& source,
                                         const std::string& symbol);

  /// The resolved entry point, cast to the kernel's function type.
  template <typename Fn>
  [[nodiscard]] Fn entry() const {
    return reinterpret_cast<Fn>(fn_);
  }

  [[nodiscard]] bool loaded() const { return handle_ != nullptr; }
  /// Wall-clock seconds spent in the external compiler.
  [[nodiscard]] double compile_seconds() const { return compile_seconds_; }

 private:
  void* handle_ = nullptr;
  void* fn_ = nullptr;
  double compile_seconds_ = 0.0;
};

}  // namespace sympiler::core
