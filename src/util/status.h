// Structured error taxonomy of the solver pipeline.
//
// Every failure the pipeline can surface is classified by an ErrorCode and
// carried by a Status — a code, a human-readable message, and (for numeric
// breakdowns) the pivot index/value that tripped it. Exceptions thrown
// across the public API derive from sympiler::Error, which wraps a Status,
// so callers can branch on code() instead of string-matching what().
//
// The legacy exception names (invalid_matrix_error, numerical_error) are
// preserved as Error subclasses with fixed codes: every pre-existing
// catch site keeps compiling and catching.
//
// The taxonomy pairs with the graceful-degradation ladder in the api
// facades (docs/robustness.md): kJitUnavailable and parallel-path faults
// degrade to interpreters/serial re-execution instead of escaping; only
// kInvalidInput and unrecovered kNumericBreakdown reach the caller on the
// default configuration.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace sympiler {

/// Failure classification of the whole pipeline.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  /// Structurally invalid input: bad CSC, dimension/RHS mismatch,
  /// malformed MatrixMarket, facade misuse (solve before factor).
  kInvalidInput,
  /// A numerical method failed: non-SPD pivot, singular diagonal.
  kNumericBreakdown,
  /// The JIT cannot produce a kernel here: no host compiler, scratch dir
  /// not writable, compile/dlopen/dlsym failure. Always recoverable — the
  /// interpreters serve the same plan bit-identically.
  kJitUnavailable,
  /// A resource guard tripped: workspace borrowed concurrently, injected
  /// allocation failure.
  kResourceExhausted,
  /// The plan verifier (verify::verify_plan) found an invariant violation
  /// in a freshly built plan: an illegal schedule, an aliased update slot,
  /// corrupted inspection sets. Never a property of the user's input —
  /// always a planner/scheduler bug (or an injected fault); the plan is
  /// rejected before any numeric code runs on it.
  kPlanInvalid,
  /// A persisted plan file failed validation: bad magic, a CRC mismatch,
  /// an out-of-bounds section offset/count, or a loaded plan that fails
  /// re-verification. Always recoverable — rung 4 of the degradation
  /// ladder discards the file and replans from the matrix.
  kCorruptPlanFile,
  /// A persisted plan file is internally consistent but written by an
  /// incompatible layout: unknown format version, foreign endianness, or
  /// a different index/value ABI. Recovered exactly like kCorruptPlanFile
  /// (discard + replan + rewrite), but classified separately so fleets can
  /// tell rolling-upgrade churn from disk corruption.
  kStalePlanVersion,
};

[[nodiscard]] const char* to_string(ErrorCode code);

/// One classified failure (or kOk). detail_index/detail_value carry the
/// breaking pivot for kNumericBreakdown (-1 when unknown/irrelevant).
struct Status {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  std::int64_t detail_index = -1;
  double detail_value = 0.0;

  [[nodiscard]] bool ok() const { return code == ErrorCode::kOk; }
  [[nodiscard]] std::string to_string() const;
};

/// Base of every exception the pipeline throws. Derives from
/// std::runtime_error so pre-taxonomy catch sites keep working.
class Error : public std::runtime_error {
 public:
  explicit Error(Status status)
      : std::runtime_error(status.message), status_(std::move(status)) {}

  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] ErrorCode code() const { return status_.code; }

 private:
  Status status_;
};

/// Thrown on structurally invalid inputs (bad CSC, dimension mismatch, ...).
class invalid_matrix_error : public Error {
 public:
  explicit invalid_matrix_error(const std::string& what)
      : Error({ErrorCode::kInvalidInput, what}) {}
};

/// Thrown when a numerical method fails (non-SPD pivot, singular
/// diagonal). Carries the breaking pivot when the thrower knows it.
class numerical_error : public Error {
 public:
  explicit numerical_error(const std::string& what)
      : Error({ErrorCode::kNumericBreakdown, what}) {}
  numerical_error(const std::string& what, std::int64_t pivot_index,
                  double pivot_value)
      : Error({ErrorCode::kNumericBreakdown, what, pivot_index, pivot_value}) {
  }

  /// Column of the breaking pivot, -1 when the thrower could not tell.
  [[nodiscard]] std::int64_t pivot_index() const {
    return status().detail_index;
  }
  /// Value of the breaking pivot (meaningful when pivot_index() >= 0).
  [[nodiscard]] double pivot_value() const { return status().detail_value; }
};

/// Thrown when the JIT cannot produce a kernel. Contained by
/// PlanCompiler::compile, which records it in the plan's JitSlot; only
/// direct JitModule users see it escape.
class jit_unavailable_error : public Error {
 public:
  explicit jit_unavailable_error(const std::string& what)
      : Error({ErrorCode::kJitUnavailable, what}) {}
};

/// Thrown when a resource guard trips (concurrent workspace borrow,
/// injected allocation failure).
class resource_exhausted_error : public Error {
 public:
  explicit resource_exhausted_error(const std::string& what)
      : Error({ErrorCode::kResourceExhausted, what}) {}
};

/// Thrown by the Planner when verify::verify_plan rejects a freshly built
/// plan. what() carries the verifier's full report — one line per finding.
class plan_verification_error : public Error {
 public:
  explicit plan_verification_error(const std::string& what)
      : Error({ErrorCode::kPlanInvalid, what}) {}
};

/// Status classification of an arbitrary in-flight exception: the carried
/// Status when `e` is a sympiler::Error; otherwise kResourceExhausted with
/// the exception's message (the anonymous failures the numeric paths can
/// realistically hit are allocation failures — std::bad_alloc,
/// std::length_error from vector growth).
[[nodiscard]] Status status_of(const std::exception& e);

}  // namespace sympiler
