// PlanMutator: targeted corruption seeding for the plan verifier's
// mutation-kill tests.
//
// Each Corruption is one class of invariant violation the verifier must
// catch — a schedule that runs a consumer before its producer, two
// producers aliased onto one slot, a fold sequence that diverges from the
// serial order, a bundle whose lanes depend on each other, a baked index
// past its extent, a workspace trimmed below what the executors touch, a
// schedule that silently drops work. apply() mutates the plan in place the
// way a real Planner/scheduler bug would, returning false when the class
// does not apply to the plan's execution path (a sequential plan has no
// slots to alias). The kill matrix in tests/test_verify.cpp and
// `sympiler_cli --verify-corpus` iterate kAllCorruptions and assert
// verify_plan flags every applicable (corruption x path) cell.
//
// Test-only by intent, but shipped in src/verify/ so the corruptions stay
// next to the invariants they violate: a new verifier check lands with the
// mutation that proves it fires.
#pragma once

#include "core/execution_plan.h"
#include "sparse/csc.h"

namespace sympiler::verify {

enum class Corruption {
  kDepViolation,          // consumer scheduled at/before its producer
  kAliasedSlot,           // two producers write one slot / duplicated dep
  kReorderedFold,         // fold sequence diverges from serial order
  kCrossDependentBundle,  // SIMD bundle lanes with a dependence edge
  kOutOfBoundsIndex,      // structural index past its extent
  kWorkspaceTrim,         // workspace dims below the executors' reach
  kScheduleGap,           // schedule silently drops an item
  kChainReorder,          // chain task members swapped out of dep order
  kDroppedPanelZeroRow,   // amalgamated panel loses an explicit-zero row
  kDroppedSchedule,       // parallel plan loses its aggregate schedule
  kDroppedSlotMap,        // parallel plan loses its update-slot map
};

/// Every corruption class, in declaration order — the one list the kill
/// matrix and the CLI corpus iterate, so a new class cannot be missed.
inline constexpr Corruption kAllCorruptions[] = {
    Corruption::kDepViolation,         Corruption::kAliasedSlot,
    Corruption::kReorderedFold,        Corruption::kCrossDependentBundle,
    Corruption::kOutOfBoundsIndex,     Corruption::kWorkspaceTrim,
    Corruption::kScheduleGap,          Corruption::kChainReorder,
    Corruption::kDroppedPanelZeroRow,  Corruption::kDroppedSchedule,
    Corruption::kDroppedSlotMap,
};

const char* to_string(Corruption c);

struct PlanMutator {
  /// Seed `c` into `plan`; false when the class cannot apply to this
  /// plan's path (e.g. slot corruption on a sequential plan).
  static bool apply(core::CholeskyPlan& plan, Corruption c);
  static bool apply(core::TriSolvePlan& plan, const CscMatrix& l,
                    Corruption c);
};

}  // namespace sympiler::verify
