// Sharded, byte-budgeted cache of ExecutionPlans, keyed by PatternKey.
//
// This is the reuse layer the paper's decoupling enables: a plan is
// immutable once built (executors only interpret it), so a service solving
// many systems with recurring sparsity patterns — Newton steps on a fixed
// mesh, circuit transients on a fixed topology — pays the Planner once per
// pattern and shares the whole strategy (sets + schedule + path) through
// shared_ptr<const Plan>. Cached plans outlive any one matrix or executor:
// an entry stays alive as long as the cache or any borrower holds it, even
// across eviction.
//
// Concurrency: the key space is striped across independent shards, each
// with its own mutex, LRU list, and byte ledger — concurrent warm lookups
// on different shards never contend. Per-shard counters are atomics with
// relaxed ordering (util/stats.h), so stats() aggregates across shards
// without taking any lock. Building a plan on a miss happens OUTSIDE the
// shard lock, so concurrent misses on different patterns plan in parallel;
// racing builders of the same key resolve first-writer-wins.
//
// Eviction is byte-budgeted, not entry-counted: every plan reports its
// bytes(), each shard holds budget/shards, and under pressure the shard
// drops, among its least-recently-used entries, the one with the highest
// bytes-per-recompute-second score — the biggest, cheapest-to-rebuild
// plan goes first, keeping expensive symbolic work resident longest.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/execution_plan.h"
#include "core/pattern_key.h"
#include "util/fault.h"
#include "util/stats.h"
#include "util/timer.h"

namespace sympiler::core {

template <class Plan>
class PlanCache {
 public:
  static constexpr std::size_t kDefaultByteBudget = 256u << 20;  // 256 MiB
  static constexpr std::size_t kDefaultShards = 8;
  /// LRU-tail window the eviction score is computed over.
  static constexpr std::size_t kEvictionWindow = 4;

  explicit PlanCache(std::size_t byte_budget = kDefaultByteBudget,
                     std::size_t shards = kDefaultShards)
      : byte_budget_(byte_budget == 0 ? 1 : byte_budget),
        shards_(shards == 0 ? 1 : shards) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Result of a cache lookup: the resident plan plus whether the lookup
  /// was served from the cache (the facade surfaces this to callers and
  /// benchmarks).
  struct Lookup {
    std::shared_ptr<const Plan> plan;
    bool hit = false;
  };

  /// Hit: bump to most-recently-used and return the entry. Miss: return
  /// {nullptr, false} and count a miss.
  [[nodiscard]] Lookup find(const PatternKey& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    return find_locked(shard, key);
  }

  /// Insert (first-writer-wins). If the key is already resident the
  /// existing entry is returned untouched — callers racing to insert the
  /// same pattern all end up sharing one plan object. The cost of
  /// recomputing the plan (eviction keeps expensive plans resident
  /// longer) defaults to the plan's own planning time; pass
  /// `rebuild_seconds` to override it.
  std::shared_ptr<const Plan> insert(const PatternKey& key,
                                     std::shared_ptr<const Plan> plan,
                                     double rebuild_seconds = -1.0) {
    if (rebuild_seconds < 0.0) rebuild_seconds = plan->evidence.build_seconds;
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    return insert_locked(shard, key, std::move(plan), rebuild_seconds);
  }

  /// The cache's main entry point: one lookup, and on a miss one build of
  /// the plan (outside the shard lock, timed for the eviction policy)
  /// followed by an insert. `build` must return Plan by value and be safe
  /// to run concurrently with other builds.
  template <class BuildFn>
  [[nodiscard]] Lookup get_or_build(const PatternKey& key, BuildFn&& build) {
    Shard& shard = shard_for(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      Lookup found = find_locked(shard, key);
      if (found.hit) return found;
    }
    Timer timer;
    auto built = std::make_shared<const Plan>(build());
    const double seconds = timer.seconds();
    // Injected insert failure: degrade to serving the freshly built plan
    // uncached — the caller's solve proceeds normally, only reuse is lost
    // (and the cache is never poisoned by a half-inserted entry).
    if (SYMPILER_FAULT_POINT(util::FaultSite::kCacheInsert))
      return {std::move(built), false};
    std::lock_guard<std::mutex> lock(shard.mu);
    return {insert_locked(shard, key, std::move(built), seconds), false};
  }

  /// Store-aware variant of get_or_build (core/plan_store.h): on a miss,
  /// try `load` (a callable returning shared_ptr<const Plan> — a persisted
  /// plan already re-verified by the caller, or nullptr) before paying
  /// `build`; freshly *built* plans are handed to `save` (write-behind) so
  /// the next process starts warm. Loaded plans are NOT re-saved — the
  /// file they came from is already current. Both load and build run
  /// outside the shard lock; a loaded plan's measured load time stands in
  /// for its rebuild cost in the eviction score, which keeps the economics
  /// honest — a store-resident plan is nearly free to bring back, so it is
  /// a preferred eviction victim over plans that must be replanned.
  template <class LoadFn, class BuildFn, class SaveFn>
  [[nodiscard]] Lookup get_or_build_stored(const PatternKey& key,
                                           LoadFn&& load, BuildFn&& build,
                                           SaveFn&& save) {
    Shard& shard = shard_for(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      Lookup found = find_locked(shard, key);
      if (found.hit) return found;
    }
    Timer load_timer;
    std::shared_ptr<const Plan> plan = load();
    double seconds = load_timer.seconds();
    if (plan == nullptr) {
      Timer build_timer;
      plan = std::make_shared<const Plan>(build());
      seconds = build_timer.seconds();
      save(plan);
    }
    // Same degradation as get_or_build: an injected insert failure serves
    // the plan uncached instead of poisoning the shard.
    if (SYMPILER_FAULT_POINT(util::FaultSite::kCacheInsert))
      return {std::move(plan), false};
    std::lock_guard<std::mutex> lock(shard.mu);
    return {insert_locked(shard, key, std::move(plan), seconds), false};
  }

  /// Aggregated counters over all shards. Lock-free: shard counters are
  /// relaxed atomics, readable while other shards mutate.
  [[nodiscard]] CacheStats stats() const {
    CacheStats total;
    for (const Shard& shard : shards_) total += shard.stats.snapshot();
    return total;
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  [[nodiscard]] CacheStats shard_stats(std::size_t i) const {
    return shards_[i].stats.snapshot();
  }

  /// Shard a key routes to (exposed for tests and shard-balance reports).
  [[nodiscard]] std::size_t shard_of(const PatternKey& key) const {
    // Upper hash bits: the per-shard maps consume the lower ones.
    return (PatternKeyHash{}(key) >> 17) % shards_.size();
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }

  /// Sum of bytes() over resident plans.
  [[nodiscard]] std::size_t resident_bytes() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.resident_bytes;
    }
    return total;
  }

  [[nodiscard]] std::size_t byte_budget() const { return byte_budget_; }

  /// Per-shard slice of the byte budget (eviction threshold).
  [[nodiscard]] std::size_t shard_budget() const {
    const std::size_t per_shard = byte_budget_ / shards_.size();
    return per_shard == 0 ? 1 : per_shard;
  }

  /// Drop every entry (borrowed shared_ptrs stay valid) and zero counters.
  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.lru.clear();
      shard.index.clear();
      shard.resident_bytes = 0;
      shard.stats.reset();
    }
  }

 private:
  struct Entry {
    PatternKey key;
    std::shared_ptr<const Plan> plan;
    std::size_t bytes = 0;           ///< plan->bytes() at insert
    double rebuild_seconds = 0.0;    ///< cost to recompute
  };
  using List = std::list<Entry>;

  /// Cache-line aligned so neighboring shards' mutexes and counters never
  /// false-share under cross-shard traffic.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    List lru;  ///< front = most recently used
    std::unordered_map<PatternKey, typename List::iterator, PatternKeyHash>
        index;
    std::size_t resident_bytes = 0;
    AtomicCacheStats stats;
  };

  Shard& shard_for(const PatternKey& key) { return shards_[shard_of(key)]; }

  Lookup find_locked(Shard& shard, const PatternKey& key) {
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      shard.stats.count_miss();
      return {nullptr, false};
    }
    if (it->second != shard.lru.begin())  // bump to MRU
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    shard.stats.count_hit();
    return {it->second->plan, true};
  }

  std::shared_ptr<const Plan> insert_locked(Shard& shard, const PatternKey& key,
                                            std::shared_ptr<const Plan> plan,
                                            double rebuild_seconds) {
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Lost a build race; adopt the resident entry.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->plan;
    }
    const std::size_t entry_bytes = plan->bytes();
    shard.lru.push_front(
        Entry{key, std::move(plan), entry_bytes, rebuild_seconds});
    shard.index.emplace(key, shard.lru.begin());
    shard.resident_bytes += entry_bytes;
    evict_locked(shard);
    return shard.lru.front().plan;
  }

  /// Byte-budget eviction: while over budget, drop — among the LRU-tail
  /// window — the entry with the highest bytes-per-recompute-second score
  /// (largest and cheapest to rebuild first). Near-ties go to the least
  /// recently used entry, and the MRU entry is never evicted, so a single
  /// over-budget plan still gets served.
  void evict_locked(Shard& shard) {
    const std::size_t budget = shard_budget();
    while (shard.resident_bytes > budget && shard.lru.size() > 1) {
      auto victim = std::prev(shard.lru.end());
      double victim_score = score(*victim);
      auto probe = victim;
      for (std::size_t i = 1; i < kEvictionWindow; ++i) {
        if (probe == shard.lru.begin()) break;
        --probe;
        if (probe == shard.lru.begin()) break;  // never the MRU entry
        const double s = score(*probe);
        if (s > victim_score * kScoreMargin) {
          victim = probe;
          victim_score = s;
        }
      }
      shard.resident_bytes -= victim->bytes;
      shard.stats.count_eviction(victim->bytes);
      shard.index.erase(victim->key);
      shard.lru.erase(victim);
    }
  }

  /// Eviction priority: bytes relative to recompute cost. The floor keeps
  /// instantly-rebuildable plans from dividing by ~zero.
  [[nodiscard]] static double score(const Entry& e) {
    constexpr double kCostFloorSeconds = 1e-3;
    return static_cast<double>(e.bytes) /
           (e.rebuild_seconds + kCostFloorSeconds);
  }

  /// A fresher entry must beat the older candidate by this factor to
  /// displace it — recency wins near-ties, so equal-weight workloads
  /// degrade to plain LRU instead of jittering on timing noise.
  static constexpr double kScoreMargin = 1.25;

  std::size_t byte_budget_;
  std::vector<Shard> shards_;
};

// The two instantiations the solver pipeline uses (definitions in
// symbolic_cache.cpp).
extern template class PlanCache<CholeskyPlan>;
extern template class PlanCache<TriSolvePlan>;

using CholeskyCache = PlanCache<CholeskyPlan>;
using TriSolveCache = PlanCache<TriSolvePlan>;

}  // namespace sympiler::core
