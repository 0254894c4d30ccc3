// Common scalar/index typedefs and small helpers shared by every module.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace sympiler {

/// Index type used for matrix dimensions and sparse index arrays.
/// 32-bit indices cover every problem in the paper's suite (n <= 1e6,
/// nnz(L) well below 2^31) and halve the symbolic memory traffic.
using index_t = std::int32_t;

/// Numerical value type. The paper's suite is double precision throughout.
using value_t = double;

// The exception hierarchy (invalid_matrix_error, numerical_error,
// jit_unavailable_error, resource_exhausted_error — all deriving from
// sympiler::Error over a structured Status) lives in util/status.h.

#define SYMPILER_CHECK(cond, msg)                      \
  do {                                                 \
    if (!(cond)) throw invalid_matrix_error(msg);      \
  } while (0)

/// Whether the library was built with assertions on (NDEBUG undefined).
/// Defined out of line, so the debug-only defaults that headers carry
/// (SympilerOptions::verify_plan, the Workspace borrow guard) follow the
/// library's build, never the NDEBUG of whichever translation unit
/// includes them: inline code that branched on NDEBUG would differ
/// between translation units and break the one-definition rule.
[[nodiscard]] bool library_debug_build() noexcept;

}  // namespace sympiler
