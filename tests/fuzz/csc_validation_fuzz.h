// Fuzz harness for the facades' CSC input validators.
//
// LLVMFuzzerTestOneInput decodes its bytes into an order n, a CSC pattern
// (colptr, rowind, values) and an RHS pattern beta, then runs
// api::validate_factor_input and api::validate_trisolve_input and
// compares each verdict and message with the ordered validators of
// tests/support/validation_oracle.h. An input both accept also goes
// through the key and a verified plan_cholesky and plan_trisolve.
//
// Byte format (bytes past the end read as 0):
//   [0] n = byte % 48      [1] flags: bit 0 one extra row (not square),
//       bit 1 scan values, bit 2 one extra colptr entry, bit 3 one value
//       too few, bit 4 the first value NaN
//   per column j < n: a count byte (count = byte % 8 entries), then one
//       byte per entry: a signed step, from j for the first row and from
//       the previous row after it (0 then 1, 1, ... is a valid column)
//   one byte m: |beta| = m % (n + 3), then |beta| bytes: byte % (n + 4) - 2
//   the rest, 4 bytes per patch: [what][pos][lo][hi] overwrites entry
//       pos % size of colptr (what % 3 == 0), rowind (1) or beta (2) with
//       the signed 16-bit value hi:lo, times 65536 when what >= 128.
//
// Build with clang -fsanitize=fuzzer,address (the fuzz_csc_validation
// target) to run it under libFuzzer; test_fuzz replays the committed
// corpus and a fixed-seed mutation loop under ctest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace sympiler::fuzz {

struct CheckResult {
  std::string finding;  ///< "" when every check agrees, else what disagreed
  int accepted = 0;     ///< how many of the two validators accepted
};

/// Run one input.
[[nodiscard]] CheckResult check_csc_validation(const std::uint8_t* data,
                                               std::size_t size);

}  // namespace sympiler::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);
