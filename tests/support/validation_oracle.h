// Test oracle for the facades' input validators (api/solver.h).
//
// The ordered validators the facades ran before their one-pass flag scan:
// CscMatrix::validate's checks in order, then squareness, diagonal-first
// columns, the RHS range and the optional value scan, each stopping at the
// first violation. api::validate_factor_input and
// api::validate_trisolve_input must reach the same verdict with the same
// message on every input; no library code calls these.
#pragma once

#include <span>
#include <string>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::support {

/// The message validate_factor_input must throw on `a_lower`, or "" when
/// it must accept it.
[[nodiscard]] std::string ordered_factor_input_error(const CscMatrix& a_lower,
                                                     bool scan_values);

/// The message validate_trisolve_input must throw, or "".
[[nodiscard]] std::string ordered_trisolve_input_error(
    const CscMatrix& l, std::span<const index_t> beta, bool scan_values);

}  // namespace sympiler::support
