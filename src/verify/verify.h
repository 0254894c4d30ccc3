// Static plan verifier: machine-checked proofs that one concrete
// ExecutionPlan is safe to execute, derived entirely from the plan's own
// data structures — no numeric code runs.
//
// The pipeline's correctness argument is that every transformation —
// aggregate scheduling, slot-map privatization, JIT lowering — preserves
// the semantics fixed by the symbolic analysis.
// Those dependence facts are statically decidable from the inspection
// sets (Mohammadi et al., PAPERS.md), so instead of sampling them with
// bit-identity tests we can check them per plan:
//
//  * kStructure  — the inspection sets are internally consistent: L
//    pattern invariants, row patterns match the factor's transpose, reach
//    sets are topological closures of the RHS pattern, supernode layouts
//    tile correctly, update refs point at real panel rows, and the two
//    preconditions of the supernodal scatter hold: every stored entry of
//    A lies in its supernode's panel rows, and every row a descendant
//    update scatters is a row of its target.
//  * kDependence — a parallel plan carries an AggregateSchedule, and it is
//    a legal topological refinement of the dependence relation recomputed
//    from the sets: every dependence lands strictly earlier (level, or
//    chain position within one task), bundle members are pairwise
//    independent and shape-homogeneous. Forward legality also makes the
//    reversed (backward) sweep legal, so no second check exists for it.
//  * kRaces      — a symbolic happens-before replay of the level-set
//    interpreters over the UpdateSlotMap a parallel plan must carry:
//    every cross-task write lands in a private slot (write-once), every
//    row's fold sequence equals the serial executor's application order
//    exactly (the determinism contract), and no slot is read before the
//    producer's barrier publishes it.
//  * kWorkspace  — the plan's WorkspaceDims cover the maximum extents the
//    executors will index (the static form of the Workspace::Borrow
//    guard: a Planner trim bug fails here, not as a runtime overrun).
//  * kEmitted    — audit of the PlanCompiler's generated C before it
//    reaches the host compiler: baked arrays match the plan sets, baked
//    indices are in-bounds against baked extents, nothing re-enables FP
//    contraction, unroll/specialization constants agree with the plan,
//    and the JitSlot's source-size accounting is honest.
//
// Wiring: core::Planner runs verify_plan on every cold plan when
// SympilerOptions::verify_plan is set (debug default; see options.h) and
// throws plan_verification_error on findings. Warm cache hits skip
// planning entirely, so verification costs nothing on the steady state.
// verify::PlanMutator (mutate.h) seeds targeted corruptions the verifier
// must catch — the mutation-kill matrix in tests/test_verify.cpp.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::core {
struct CholeskyPlan;  // core/execution_plan.h
struct TriSolvePlan;
}  // namespace sympiler::core

namespace sympiler::verify {

/// Which analysis pass produced a finding.
enum class Pass {
  kStructure,   ///< inspection-set internal consistency
  kDependence,  ///< schedule legality vs the recomputed dependence relation
  kRaces,       ///< happens-before replay over the UpdateSlotMap
  kWorkspace,   ///< WorkspaceDims cover the executors' maximum extents
  kEmitted,     ///< audit of the PlanCompiler's generated C
};

[[nodiscard]] const char* to_string(Pass pass);

/// One violated invariant. `check` is a stable machine-readable id
/// ("races.fold-order"); `item` names the offending column / supernode /
/// slot when one exists (-1 otherwise); `message` carries the indices for
/// a human.
struct Finding {
  Pass pass = Pass::kStructure;
  std::string check;
  index_t item = -1;
  std::string message;
};

/// Machine-readable verification result: pass/fail per invariant. Each
/// invariant family counts toward `checks` whether or not it fired;
/// scanning stops at the first violation of each invariant, so one broken
/// contract yields one precise finding, not a flood.
struct Report {
  std::vector<Finding> findings;
  int checks = 0;        ///< invariant families evaluated
  double seconds = 0.0;  ///< wall time of verification

  [[nodiscard]] bool ok() const { return findings.empty(); }
  /// "verify: PASS (n checks, t ms)" or the findings, one per line.
  [[nodiscard]] std::string to_string() const;
};

struct VerifyOptions {
  /// Run the emitted-code auditor (kEmitted). Costs one PlanCompiler::emit
  /// of the full translation unit, so it runs only when a caller asks (the
  /// Planner never does; tests and sympiler_cli --verify do).
  bool audit_emitted_code = false;
};

/// Verify a Cholesky plan. Everything the passes need (L's pattern on the
/// simplicial path, A's pattern, the layout and the update lists on the
/// supernodal ones, aggregate schedule, slot map) lives in the plan.
[[nodiscard]] Report verify_plan(const core::CholeskyPlan& plan,
                                 const VerifyOptions& opts = {});

/// Verify a triangular-solve plan. The plan stores no copy of L or of the
/// RHS pattern, so callers supply the same factor + beta the plan was
/// built from (the Planner has both in hand at plan time).
[[nodiscard]] Report verify_plan(const core::TriSolvePlan& plan,
                                 const CscMatrix& l,
                                 std::span<const index_t> beta,
                                 const VerifyOptions& opts = {});

}  // namespace sympiler::verify
