// Verifier driver + the schedule-shape validation shared by the passes.
#include "verify/verify.h"

#include <utility>

#include "util/fault.h"
#include "util/timer.h"
#include "verify/internal.h"

namespace sympiler::verify {

const char* to_string(Pass pass) {
  switch (pass) {
    case Pass::kStructure:
      return "structure";
    case Pass::kDependence:
      return "dependence";
    case Pass::kRaces:
      return "races";
    case Pass::kWorkspace:
      return "workspace";
    case Pass::kEmitted:
      return "emitted";
  }
  return "?";
}

std::string Report::to_string() const {
  std::ostringstream os;
  if (ok()) {
    os << "verify: PASS (" << checks << " checks, " << seconds * 1e3 << " ms)";
    return os.str();
  }
  os << "verify: FAIL (" << findings.size() << " finding"
     << (findings.size() == 1 ? "" : "s") << ", " << checks << " checks)";
  for (const Finding& f : findings) {
    os << "\n  [" << verify::to_string(f.pass) << "] " << f.check;
    if (f.item >= 0) os << " @" << f.item;
    os << ": " << f.message;
  }
  return os.str();
}

namespace detail {

ItemOrder check_agg_schedule(Checker& c,
                             const parallel::AggregateSchedule& agg,
                             index_t count) {
  ItemOrder order;
  const index_t ntasks = agg.tasks();
  c.note();
  if (agg.task_ptr.empty() || agg.task_ptr.front() != 0 ||
      agg.task_ptr.back() != count ||
      static_cast<index_t>(agg.bundle.size()) != ntasks) {
    c.fail("agg.task-ptr", -1,
           cat("task_ptr must start at 0 and end at ", count,
               " with one bundle flag per task"));
    return order;
  }
  for (std::size_t v = 1; v < agg.task_ptr.size(); ++v) {
    if (agg.task_ptr[v] < agg.task_ptr[v - 1]) {
      c.fail("agg.task-ptr", static_cast<index_t>(v),
             cat("task_ptr decreases at task ", v - 1));
      return order;
    }
  }
  c.note();
  if (agg.level_ptr.empty() || agg.level_ptr.front() != 0 ||
      agg.level_ptr.back() != ntasks) {
    c.fail("agg.level-ptr", -1,
           cat("level_ptr must start at 0 and end at ", ntasks, " tasks"));
    return order;
  }
  for (std::size_t v = 1; v < agg.level_ptr.size(); ++v) {
    if (agg.level_ptr[v] < agg.level_ptr[v - 1]) {
      c.fail("agg.level-ptr", static_cast<index_t>(v),
             cat("level_ptr decreases at level ", v - 1));
      return order;
    }
  }
  c.note();
  if (static_cast<index_t>(agg.items.size()) != count) {
    c.fail("agg.partition", -1,
           cat("schedule holds ", agg.items.size(), " items, expected ",
               count));
    return order;
  }
  order.level.assign(count, -1);
  order.task.assign(count, 0);
  order.pos.assign(count, 0);
  order.bundled.assign(count, 0);
  for (index_t lv = 0; lv < agg.levels(); ++lv) {
    for (index_t t = agg.level_ptr[lv]; t < agg.level_ptr[lv + 1]; ++t) {
      for (index_t q = agg.task_ptr[t]; q < agg.task_ptr[t + 1]; ++q) {
        const index_t item = agg.items[q];
        if (item < 0 || item >= count) {
          c.fail("agg.partition", item,
                 cat("item id out of range at position ", q, " (task ", t,
                     ")"));
          return order;
        }
        if (order.level[item] >= 0) {
          c.fail("agg.partition", item,
                 cat("item scheduled twice (levels ", order.level[item],
                     " and ", lv, ")"));
          return order;
        }
        order.level[item] = lv;
        order.task[item] = t;
        order.pos[item] = q - agg.task_ptr[t];
        order.bundled[item] = agg.bundle[t];
      }
    }
  }
  c.note();
  for (index_t t = 0; t < ntasks; ++t) {
    if (agg.bundle[t] == 0) continue;
    const index_t size = agg.task_ptr[t + 1] - agg.task_ptr[t];
    if (size < 2 || size > parallel::kBundleMax) {
      c.fail("agg.bundle-size", t,
             cat("bundle of ", size, " lanes outside [2, ",
                 parallel::kBundleMax, "]"));
      return order;
    }
  }
  order.usable = true;
  return order;
}

}  // namespace detail

namespace {

/// Synthetic finding for the kVerify fault site: lets the failure-domain
/// tests drive the Planner's verification-failure path without crafting a
/// genuinely broken plan.
bool inject_fault(Report& report) {
  if (!SYMPILER_FAULT_POINT(util::FaultSite::kVerify)) return false;
  report.checks = 1;
  report.findings.push_back(
      {Pass::kStructure, "fault.injected", -1,
       "injected verification failure (fault site verify)"});
  return true;
}

}  // namespace

Report verify_plan(const core::CholeskyPlan& plan, const VerifyOptions& opts) {
  Report report;
  const Timer timer;
  if (inject_fault(report)) {
    report.seconds = timer.seconds();
    return report;
  }
  detail::check_structure(report, plan);
  detail::check_dependence(report, plan);
  detail::check_races(report, plan);
  detail::check_workspace(report, plan);
  if (opts.audit_emitted_code) detail::check_emitted(report, plan);
  report.seconds = timer.seconds();
  return report;
}

Report verify_plan(const core::TriSolvePlan& plan, const CscMatrix& l,
                   std::span<const index_t> beta, const VerifyOptions& opts) {
  Report report;
  const Timer timer;
  if (inject_fault(report)) {
    report.seconds = timer.seconds();
    return report;
  }
  detail::check_structure(report, plan, l, beta);
  detail::check_dependence(report, plan, l);
  detail::check_races(report, plan, l);
  detail::check_workspace(report, plan, l);
  if (opts.audit_emitted_code) detail::check_emitted(report, plan, l);
  report.seconds = timer.seconds();
  return report;
}

}  // namespace sympiler::verify
