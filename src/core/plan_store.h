// Durable, corruption-tolerant on-disk store of serialized ExecutionPlans.
//
// A PlanStore roots a directory of plan files (plan_serde.h format), one
// per (PatternKey, plan kind), named by the key's hashes. It gives the
// plan cache a restart-warm tier: after a process restart, a cache miss
// loads the persisted plan (milliseconds) instead of replanning from the
// matrix (the cold symbolic cost the paper moves to compile time).
//
// Crash safety: save() serializes to a unique temp file in the same
// directory, fsyncs it, atomically rename()s it over the final name, then
// fsyncs the directory. A crash at any point leaves either the old file,
// the new file, or a stray *.tmp.* — never a torn final file. Stray temps
// are invisible to load() (it opens exact final names only).
//
// Corruption tolerance: load() trusts nothing. The serde layer CRC-checks
// and bounds-checks every byte (kCorruptPlanFile / kStalePlanVersion);
// this layer additionally cross-checks the loaded plan's PatternKey
// against the requested one, so a renamed or hash-colliding file cannot
// serve the wrong pattern. Callers (api facades) must re-verify every
// loaded plan via verify::verify_plan before publication and, on any
// rejection, discard() the file and replan — rung 4 of the degradation
// ladder (docs/robustness.md). Threat model and format details:
// docs/persistence.md.
//
// Write-behind: save_async() queues the plan on a lazily started writer
// thread so persistence never blocks a solve; flush() drains the queue
// (tests and process shutdown). All entry points are thread-safe.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <condition_variable>
#include <atomic>
#include <functional>
#include <vector>

#include "core/execution_plan.h"
#include "util/status.h"

namespace sympiler::core {

class PlanStore {
 public:
  /// Outcome of a load. `found` distinguishes "no file for this key"
  /// (a plain cold miss) from "a file existed": when found && !status.ok()
  /// the file was rejected (corrupt/stale/injected fault) and the caller
  /// should take rung 4 — discard, replan, rewrite.
  struct Loaded {
    bool found = false;
    Status status;
    [[nodiscard]] bool ok() const { return found && status.ok(); }
  };

  /// Monotonic store-level counters (surfaced by sympiler_cli --explain).
  struct Stats {
    std::uint64_t loads = 0;          ///< successful load()s
    std::uint64_t load_failures = 0;  ///< files found but rejected
    std::uint64_t writes = 0;         ///< successful save()s
    std::uint64_t write_failures = 0; ///< save()s that returned an error
    std::uint64_t discards = 0;       ///< rung-4 file discards
    std::uint64_t declines = 0;       ///< plans the profitability gate skipped
  };

  /// Persistence profitability gate. Persisting is only worth it when a
  /// future restart would load the file faster than it could replan:
  /// loading costs roughly bytes/bandwidth (CRC + copy + re-verify,
  /// all memory-speed), while replanning costs the plan's measured
  /// `evidence.build_seconds`. Three rules, in order:
  ///   1. Plans at or under a byte floor always persist — their load
  ///      cost is noise, and a byte threshold (unlike the noisy timer)
  ///      keeps small-pattern behavior deterministic across machines.
  ///   2. Above the floor, a plan whose planner itself runs at memory
  ///      speed (`memory_bound_planning` — the simplicial / pruned
  ///      paths, whose symbolic phase is a pattern fill) never
  ///      persists: a load that moves the same bytes through the same
  ///      memory system cannot beat replanning by the profit margin,
  ///      no matter what the (noisy, first-touch-inflated) build timer
  ///      said. Measured load/replan ratios for these sit at 0.9-1.1x.
  ///   3. Otherwise (compute-bound planning: supernodal assembly,
  ///      update scheduling) persist when the estimated load time is
  ///      comfortably under the measured build time.
  /// Constants and rationale: plan_store.cpp; measured ratios: the
  /// restart_warm table in BENCH_cache.json.
  [[nodiscard]] static bool should_persist(std::size_t plan_bytes,
                                           double build_seconds,
                                           bool memory_bound_planning);

  /// Shared handle to the store rooted at `dir`. One PlanStore instance
  /// per directory per process (a registry keyed by the literal dir
  /// string), so concurrent facades pointing at one directory share a
  /// writer thread and serialize their renames through one object.
  [[nodiscard]] static std::shared_ptr<PlanStore> open(const std::string& dir);

  explicit PlanStore(std::string dir);
  ~PlanStore();  ///< drains the write-behind queue, then joins the writer

  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;

  /// Load the persisted plan for `key`, re-checking every byte (see class
  /// comment). On Loaded::ok(), `*out` is a complete plan with a fresh
  /// JitSlot. The caller still owns re-verification.
  [[nodiscard]] Loaded load(const PatternKey& key, CholeskyPlan* out);
  [[nodiscard]] Loaded load(const PatternKey& key, TriSolvePlan* out);

  /// Crash-safely persist `plan` (temp + fsync + rename + dir fsync),
  /// replacing any existing file for its key. I/O failures (including the
  /// injected kStoreWrite fault) return kResourceExhausted — the caller
  /// keeps the in-memory plan and degrades to "unpersisted".
  [[nodiscard]] Status save(const CholeskyPlan& plan);
  [[nodiscard]] Status save(const TriSolvePlan& plan);

  /// Queue `plan` for persistence on the writer thread and return
  /// immediately. Failures are absorbed into stats() (write_failures) —
  /// write-behind has no caller to report to.
  void save_async(std::shared_ptr<const CholeskyPlan> plan);
  void save_async(std::shared_ptr<const TriSolvePlan> plan);

  /// save_async() behind the profitability gate: plans that
  /// should_persist() rejects are counted in stats().declines and never
  /// touch disk. The facades' write-behind path.
  void save_async_if_profitable(std::shared_ptr<const CholeskyPlan> plan);
  void save_async_if_profitable(std::shared_ptr<const TriSolvePlan> plan);

  /// Block until every save_async() queued so far has been attempted.
  void flush();

  /// Delete the persisted file for `key` (rung 4, or tests). Missing file
  /// is not an error.
  void discard(const PatternKey& key, bool cholesky);

  /// Final on-disk path load()/save() use for `key`.
  [[nodiscard]] std::string path_for(const PatternKey& key,
                                     bool cholesky) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] Stats stats() const;

 private:
  /// A loaded file image. `view` points into `backing` — an mmap'ed
  /// read-only view on the fast path (zero copies before validation), a
  /// heap buffer when mapping is unavailable. Mapping a store file is
  /// safe against concurrent saves: writers replace via rename, never
  /// truncate in place, so a mapped inode is immutable once opened.
  struct LoadedBytes {
    bool found = false;
    Status status;
    std::span<const std::uint8_t> view;
    std::shared_ptr<const void> backing;
  };
  [[nodiscard]] LoadedBytes read_file(const std::string& path);
  [[nodiscard]] Status write_file(const std::string& path,
                                  const std::vector<std::uint8_t>& bytes);
  template <typename Plan>
  [[nodiscard]] Loaded load_impl(const PatternKey& key, bool cholesky,
                                 Plan* out);
  template <typename Plan>
  [[nodiscard]] Status save_impl(const Plan& plan, bool cholesky);
  void enqueue(std::function<void()> job);
  void writer_main();

  const std::string dir_;

  std::atomic<std::uint64_t> loads_{0};
  std::atomic<std::uint64_t> load_failures_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> write_failures_{0};
  std::atomic<std::uint64_t> discards_{0};
  std::atomic<std::uint64_t> declines_{0};
  std::atomic<std::uint64_t> tmp_seq_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;    ///< wakes the writer
  std::condition_variable drained_cv_;  ///< wakes flush()
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  ///< jobs popped but not yet finished
  bool stopping_ = false;
  bool writer_started_ = false;
  std::thread writer_;
};

}  // namespace sympiler::core
