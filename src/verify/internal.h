// Shared machinery of the verifier passes (verify.h is the public face).
//
// Conventions the passes follow:
//  * Checker::note() once per invariant *family*; each family's scan stops
//    at its first violation, so a corrupted plan yields one precise
//    finding per broken contract instead of a flood.
//  * Every index read out of plan data is bounds-checked before use — the
//    verifier's whole job is to run on corrupted plans, so it must never
//    itself index out of bounds.
//  * Passes take the plan by const reference and allocate only their own
//    scratch; nothing in the plan is touched.
#pragma once

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/execution_plan.h"
#include "verify/verify.h"

namespace sympiler::verify::detail {

/// Small ostream-based formatter for finding messages.
template <typename... Args>
[[nodiscard]] std::string cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}

/// Accumulates findings for one pass into a Report.
class Checker {
 public:
  Checker(Report& report, Pass pass) : report_(report), pass_(pass) {}

  /// Count one invariant family as evaluated.
  void note() { ++report_.checks; }

  /// Record a violation. Returns false so scan loops can
  /// `return c.fail(...)` / `ok = c.fail(...)` and stop.
  bool fail(std::string check, index_t item, std::string message) {
    report_.findings.push_back(
        {pass_, std::move(check), item, std::move(message)});
    return false;
  }

  [[nodiscard]] bool clean() const { return report_.findings.empty(); }

 private:
  Report& report_;
  Pass pass_;
};

/// Happens-before order of schedule items, derived from a validated
/// aggregate schedule. `before(a, b)` = a completes before b starts in
/// *every* execution of the schedule: a strictly earlier barrier level, or
/// an earlier position within the same sequential chain. Bundle members
/// run lock-step, so they are ordered only by level.
struct ItemOrder {
  std::vector<index_t> level;         ///< barrier level of each item
  std::vector<index_t> task;          ///< owning task
  std::vector<index_t> pos;           ///< position within the task
  std::vector<std::uint8_t> bundled;  ///< item sits in a lock-step bundle
  bool usable = false;  ///< schedule was structurally valid

  [[nodiscard]] bool before(index_t a, index_t b) const {
    if (level[a] != level[b]) return level[a] < level[b];
    return task[a] == task[b] && bundled[a] == 0 && pos[a] < pos[b];
  }
};

/// Validate an AggregateSchedule over `count` items (level_ptr/task_ptr
/// monotone and aligned, items a permutation, bundle sizes within
/// [2, kBundleMax]) and build its ItemOrder. Findings go under "agg.*".
[[nodiscard]] ItemOrder check_agg_schedule(
    Checker& c, const parallel::AggregateSchedule& agg, index_t count);

// ---- pass entry points (one translation unit each) ----

void check_structure(Report& report, const core::CholeskyPlan& plan);
void check_dependence(Report& report, const core::CholeskyPlan& plan);
void check_races(Report& report, const core::CholeskyPlan& plan);
void check_workspace(Report& report, const core::CholeskyPlan& plan);
void check_emitted(Report& report, const core::CholeskyPlan& plan);

void check_structure(Report& report, const core::TriSolvePlan& plan,
                     const CscMatrix& l, std::span<const index_t> beta);
void check_dependence(Report& report, const core::TriSolvePlan& plan,
                      const CscMatrix& l);
void check_races(Report& report, const core::TriSolvePlan& plan,
                 const CscMatrix& l);
void check_workspace(Report& report, const core::TriSolvePlan& plan,
                     const CscMatrix& l);
void check_emitted(Report& report, const core::TriSolvePlan& plan,
                   const CscMatrix& l);

}  // namespace sympiler::verify::detail
