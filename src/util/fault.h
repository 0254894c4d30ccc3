// Deterministic fault injection for the failure-domain tests.
//
// The pipeline's error paths (non-SPD pivots, JIT compile/dlopen failures,
// allocation failures, cache-insert failures) are rare by construction, so
// exercising them needs a way to make a specific site fail on a specific
// pass. FaultInjector provides that: each instrumented site calls
// SYMPILER_FAULT_POINT(site), which counts the pass and reports whether
// the armed trigger fires at this ordinal. Triggers are site-indexed and
// ordinal-addressed — "fail the 3rd pivot check" — so a faulted run is
// exactly reproducible.
//
// Arming:
//  * programmatic: FaultInjector::arm(site, nth, count) — fire `count`
//    consecutive passes starting at the nth pass (1-based) of `site`;
//  * environment: SYMPILER_FAULT="site:nth[:count]" (site names from
//    FaultInjector::name: alloc, jit-compile, jit-load, pivot,
//    cache-insert, verify, store-write, store-read, store-checksum),
//    parsed once at process start — re-apply after reset() with
//    arm_from_env(). A malformed spec rejects loudly: the injector stays
//    disarmed, a diagnostic goes to stderr, and env_status() carries a
//    structured kInvalidInput Status naming the bad spec.
//
// Cost when disarmed: one relaxed atomic load per site pass (no counting).
// Compiling with -DSYMPILER_DISABLE_FAULT_INJECTION turns every site into
// a constant false — zero code on the hot path.
//
// Thread safety: sites may be passed concurrently (the parallel
// interpreters do); counters are atomics and the armed trigger is
// immutable while armed. arm()/reset() themselves are not meant to race
// with in-flight solves.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/status.h"

namespace sympiler::util {

/// Instrumented failure sites (docs/robustness.md lists what each one
/// throws and how the pipeline degrades).
enum class FaultSite : int {
  kAlloc = 0,     ///< Workspace::ensure — resource_exhausted_error
  kJitCompile,    ///< JitModule::compile, before forking the host compiler
  kJitLoad,       ///< JitModule::compile, before dlopen of the artifact
  kPivot,         ///< numeric pivot checks — numerical_error
  kCacheInsert,   ///< PlanCache::get_or_build — degrades to uncached plan
  kVerify,        ///< verify::verify_plan — plan_verification_error
  kStoreWrite,    ///< PlanStore::save — degrades to unpersisted plan
  kStoreRead,     ///< PlanStore::load — degrades to cold replan
  kStoreChecksum, ///< plan_serde CRC check — degrades to rung-4 replan
  kSiteCount_,    ///< sentinel
};

inline constexpr int kFaultSiteCount = static_cast<int>(FaultSite::kSiteCount_);

class FaultInjector {
 public:
  /// Count one pass through `site`; true when the armed trigger fires at
  /// this ordinal. Disarmed cost: one relaxed atomic load.
  static bool should_fail(FaultSite site) {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return should_fail_slow(site);
  }

  /// Arm: fire `count` consecutive passes of `site` starting at the nth
  /// pass (1-based) counted from this call. Re-arming replaces the trigger
  /// and restarts the site counters.
  static void arm(FaultSite site, std::uint64_t nth, std::uint64_t count = 1);

  /// Disarm and zero all counters. Does not re-read the environment; call
  /// arm_from_env() to re-apply a SYMPILER_FAULT spec.
  static void reset();

  /// Parse SYMPILER_FAULT from the environment and arm accordingly; false
  /// when unset or unparsable. Called once automatically at process start.
  /// A malformed spec is rejected loudly: a diagnostic is printed to
  /// stderr and env_status() records a kInvalidInput Status.
  static bool arm_from_env();

  /// Outcome of the most recent arm_from_env(): kOk when SYMPILER_FAULT
  /// was unset or parsed cleanly, kInvalidInput (message naming the bad
  /// spec) when it was malformed. Sticky until the next arm_from_env().
  [[nodiscard]] static Status env_status();

  /// Passes counted through `site` since the last arm/reset.
  [[nodiscard]] static std::uint64_t hits(FaultSite site);

  /// Number of times any armed trigger has fired since the last arm/reset.
  [[nodiscard]] static std::uint64_t fired();

  [[nodiscard]] static const char* name(FaultSite site);

  /// Parse a "site:nth[:count]" spec (as in SYMPILER_FAULT). Returns false
  /// without touching the outputs on malformed input.
  static bool parse(const char* spec, FaultSite* site, std::uint64_t* nth,
                    std::uint64_t* count);

 private:
  static bool should_fail_slow(FaultSite site);

  static std::atomic<bool> armed_;
};

}  // namespace sympiler::util

#if defined(SYMPILER_DISABLE_FAULT_INJECTION)
#define SYMPILER_FAULT_POINT(site) false
#else
/// One instrumented failure site. Usage:
///   if (SYMPILER_FAULT_POINT(util::FaultSite::kPivot)) throw ...;
#define SYMPILER_FAULT_POINT(site) \
  (::sympiler::util::FaultInjector::should_fail(site))
#endif
