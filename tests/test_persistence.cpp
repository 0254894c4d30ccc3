// Crash-safe plan persistence tests (core/plan_serde.h, core/plan_store.h,
// docs/persistence.md).
//
// Four layers:
//  * serde round-trip — serialize/deserialize/re-serialize is byte-
//    identical on every execution path, with equal bytes() accounting and
//    a clean verifier report on the loaded plan;
//  * corruption corpus — six mutation classes (payload bit-flip,
//    truncation, section-id swap, section-offset lie, section-length lie,
//    checksum lie) against EVERY section of the file, plus header lies,
//    a truncation sweep, stale-version/ABI tags, and garbage files: each
//    must be rejected with a structured kCorruptPlanFile /
//    kStalePlanVersion Status — never a crash (this file runs under
//    ASan/UBSan in CI);
//  * PlanStore mechanics — crash-safe save, key cross-check, discard,
//    write-behind flush, stats counters, and the three injected fault
//    sites (store-write, store-read, store-checksum);
//  * facade restart warm-start — a fresh SymbolicContext pointed at the
//    store loads the persisted plan (no replanning transpose), factors
//    bit-identically to the cold plan, and a corrupted file takes rung 4:
//    discard + replan + rewrite, recorded in the FactorReport.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "api/solver.h"
#include "core/inspector.h"
#include "core/pattern_key.h"
#include "core/plan_serde.h"
#include "core/plan_store.h"
#include "core/planner.h"
#include "core/workspace.h"
#include "gen/generators.h"
#include "graph/symbolic.h"
#include "parallel/schedule.h"
#include "support/plans.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/status.h"
#include "verify/verify.h"

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

namespace sympiler {
namespace {

using core::CholeskyPlan;
using core::ExecutionPath;
using core::PatternKey;
using core::Planner;
using core::PlannerConfig;
using core::PlanStore;
using core::TriSolvePlan;
using util::FaultInjector;
using util::FaultSite;

struct FaultGuard {
  FaultGuard() { FaultInjector::reset(); }
  ~FaultGuard() { FaultInjector::reset(); }
};

/// Unique on-disk store directory, removed on scope exit.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/sympiler-store-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp/sympiler-store-fallback";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

void expect_bits_equal(const std::vector<value_t>& got,
                       const std::vector<value_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "first bit difference at index " << i;
}

// ------------------------------------------------------------ plan builders

PlannerConfig sequential_config(double vs_gate) {
  PlannerConfig cfg;
  cfg.options.vsblock_min_avg_size = vs_gate;
  cfg.options.vsblock_min_avg_width = vs_gate > 0.0 ? vs_gate : 0.0;
  cfg.options.verify_plan = false;
  cfg.enable_parallel = false;
  return cfg;
}

CholeskyPlan simplicial_plan(const CscMatrix& a) {
  return Planner(sequential_config(1e9)).plan_cholesky(a);
}

CholeskyPlan supernodal_plan(const CscMatrix& a) {
  return Planner(sequential_config(0.0)).plan_cholesky(a);
}

/// Coarsened parallel plan, assembled from a supernodal plan
/// (support/plans.h) so this path serializes in every build: every section
/// of the file format but the simplicial row patterns is non-trivial here.
CholeskyPlan coarsened_cholesky_plan(const CscMatrix& a) {
  return support::parallel_cholesky_plan(supernodal_plan(a), a,
                                         /*coarsen=*/true);
}

TriSolvePlan coarsened_trisolve_plan(const CscMatrix& l,
                                     std::span<const index_t> beta) {
  core::SympilerOptions opt;
  opt.vsblock_min_avg_size = 1e9;
  opt.vsblock_min_avg_width = 1e9;
  TriSolvePlan plan;
  plan.key = core::trisolve_pattern_key(l, beta, opt);
  plan.options = opt;
  plan.sets = core::inspect_trisolve(l, beta, opt);
  plan.update_map = parallel::update_slots_columns(l, plan.sets.reach);
  plan.workspace.n = l.cols();
  plan.workspace.need_map = false;
  plan.workspace.need_dense = false;
  plan.workspace.update_slots = plan.update_map.slots();
  plan.workspace.rhs_block = core::kRhsBlockWidth;
  plan.path = ExecutionPath::ParallelTriSolve;
  plan.agg = parallel::coarsen_schedule_columns(
      l, parallel::level_schedule_columns(l));
  return plan;
}

CscMatrix factor_pattern(const CscMatrix& a) {
  return symbolic_cholesky(a).l_pattern;
}

std::vector<index_t> dense_beta(index_t n) {
  std::vector<index_t> beta(static_cast<std::size_t>(n));
  std::iota(beta.begin(), beta.end(), 0);
  return beta;
}

// ------------------------------------------------- file-image manipulation
//
// Byte-level view of the plan_serde layout (documented in
// docs/persistence.md): fixed 104-byte header (CRC over [0, 96)), then
// section_count 24-byte table entries {id, crc, offset, length} plus a
// table CRC, then the 8-aligned section payloads.

constexpr std::size_t kHeaderCrcOffset = 96;
constexpr std::size_t kTableOffset = 104;
constexpr std::size_t kEntrySize = 24;
constexpr std::size_t kSectionCountOffset = 22;

template <typename T>
T rd(const std::vector<std::uint8_t>& b, std::size_t off) {
  T v{};
  std::memcpy(&v, b.data() + off, sizeof(T));
  return v;
}

template <typename T>
void wr(std::vector<std::uint8_t>& b, std::size_t off, T v) {
  std::memcpy(b.data() + off, &v, sizeof(T));
}

void fix_header_crc(std::vector<std::uint8_t>& b) {
  wr<std::uint32_t>(b, kHeaderCrcOffset,
                    core::serde_crc32(b.data(), kHeaderCrcOffset));
}

void fix_table_crc(std::vector<std::uint8_t>& b) {
  const auto n = rd<std::uint16_t>(b, kSectionCountOffset);
  wr<std::uint32_t>(b, kTableOffset + n * kEntrySize,
                    core::serde_crc32(b.data() + kTableOffset,
                                      n * kEntrySize));
}

struct Entry {
  std::uint32_t id = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

std::vector<Entry> read_table(const std::vector<std::uint8_t>& b) {
  const auto n = rd<std::uint16_t>(b, kSectionCountOffset);
  std::vector<Entry> table(n);
  for (std::uint16_t s = 0; s < n; ++s) {
    const std::size_t off = kTableOffset + s * kEntrySize;
    table[s].id = rd<std::uint32_t>(b, off);
    table[s].crc = rd<std::uint32_t>(b, off + 4);
    table[s].offset = rd<std::uint64_t>(b, off + 8);
    table[s].length = rd<std::uint64_t>(b, off + 16);
  }
  return table;
}

void write_entry(std::vector<std::uint8_t>& b, std::size_t s,
                 const Entry& e) {
  const std::size_t off = kTableOffset + s * kEntrySize;
  wr<std::uint32_t>(b, off, e.id);
  wr<std::uint32_t>(b, off + 4, e.crc);
  wr<std::uint64_t>(b, off + 8, e.offset);
  wr<std::uint64_t>(b, off + 16, e.length);
}

Status load_image(const std::vector<std::uint8_t>& bytes, CholeskyPlan*) {
  CholeskyPlan out;
  return core::deserialize_plan(std::span<const std::uint8_t>(bytes), &out);
}

Status load_image(const std::vector<std::uint8_t>& bytes, TriSolvePlan*) {
  TriSolvePlan out;
  return core::deserialize_plan(std::span<const std::uint8_t>(bytes), &out);
}

/// Every mutation must be rejected with one of the two persistence codes;
/// anything else (kOk, a crash, a sanitizer finding) fails the corpus.
template <typename Plan>
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& what) {
  const Status status = load_image(bytes, static_cast<Plan*>(nullptr));
  EXPECT_FALSE(status.ok()) << what << ": corruption loaded cleanly";
  EXPECT_TRUE(status.code == ErrorCode::kCorruptPlanFile ||
              status.code == ErrorCode::kStalePlanVersion)
      << what << ": unexpected code in " << status.to_string();
}

/// The six-class per-section corpus: run every class against every
/// section of `image` and require a structured rejection each time.
template <typename Plan>
void run_section_corpus(const std::vector<std::uint8_t>& image,
                        const char* image_name) {
  const std::vector<Entry> table = read_table(image);
  ASSERT_FALSE(table.empty());
  for (std::size_t s = 0; s < table.size(); ++s) {
    const Entry& e = table[s];
    const std::string label =
        std::string(image_name) + " section " + std::to_string(e.id);
    ASSERT_GE(e.length, 8u) << label;  // count-prefixed payloads

    {  // 1. payload bit-flip (caught by the section CRC)
      std::vector<std::uint8_t> b = image;
      b[static_cast<std::size_t>(e.offset + e.length / 2)] ^= 0x10;
      expect_rejected<Plan>(b, label + ": payload bit-flip");
    }
    {  // 2. truncation mid-section (caught by the file_bytes check)
      std::vector<std::uint8_t> b = image;
      b.resize(static_cast<std::size_t>(e.offset + e.length / 2));
      expect_rejected<Plan>(b, label + ": truncation");
    }
    {  // 3. section-id swap, CRCs fixed up: the payloads still checksum
      //    clean but parse as the wrong section. Pick a partner whose
      //    payload BYTES differ — two empty sections serialize to
      //    identical count-prefix runs, and swapping identical payloads
      //    is a no-op, not a corruption.
      std::size_t partner = table.size();
      for (std::size_t t = 0; t < table.size(); ++t) {
        if (t == s) continue;
        const bool same =
            table[t].length == e.length &&
            std::memcmp(image.data() + table[t].offset,
                        image.data() + e.offset,
                        static_cast<std::size_t>(e.length)) == 0;
        if (!same) {
          partner = t;
          break;
        }
      }
      if (partner < table.size()) {
        std::vector<std::uint8_t> b = image;
        Entry x = table[s];
        Entry z = table[partner];
        std::swap(x.id, z.id);
        write_entry(b, s, x);
        write_entry(b, partner, z);
        fix_table_crc(b);
        expect_rejected<Plan>(b, label + ": id swap");
      }
    }
    {  // 4. offset lie pointing past the file, table CRC fixed up
      std::vector<std::uint8_t> b = image;
      Entry lie = e;
      lie.offset = b.size();
      lie.length = 64;
      write_entry(b, s, lie);
      fix_table_crc(b);
      expect_rejected<Plan>(b, label + ": offset lie");
    }
    {  // 5. length lie growing the section into its neighbor
      std::vector<std::uint8_t> b = image;
      Entry lie = e;
      lie.length += 8;
      write_entry(b, s, lie);
      fix_table_crc(b);
      expect_rejected<Plan>(b, label + ": length lie");
    }
    {  // 6. checksum lie: stored section CRC no longer matches the payload
      std::vector<std::uint8_t> b = image;
      Entry lie = e;
      lie.crc ^= 0x5A5A5A5Au;
      write_entry(b, s, lie);
      fix_table_crc(b);
      expect_rejected<Plan>(b, label + ": checksum lie");
    }
  }
}

// ---------------------------------------------------------- serde round-trip

// ---------------------------------------------------------------- checksum

// The format's checksum is CRC-32C. Pin the function itself (the
// published check value over "123456789") and the dispatch: the hardware
// SSE4.2 path and the portable slicing-by-8 fallback must agree on every
// length and alignment, or a plan written on one machine would be
// "corrupt" on another.
TEST(Crc32c, MatchesThePublishedCheckValue) {
  const char digits[] = "123456789";
  EXPECT_EQ(util::crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(util::crc32c_software(digits, 9), 0xE3069283u);
  EXPECT_EQ(util::crc32c("", 0), 0x00000000u);
}

TEST(Crc32c, HardwareAndSoftwarePathsAgreeAcrossLengthsAndAlignments) {
  std::vector<std::uint8_t> buf(4096 + 64);
  std::uint32_t state = 0x12345678u;  // deterministic xorshift fill
  for (std::uint8_t& b : buf) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    b = static_cast<std::uint8_t>(state);
  }
  for (const std::size_t len : {std::size_t{1}, std::size_t{3},
                                std::size_t{7}, std::size_t{8},
                                std::size_t{9}, std::size_t{63},
                                std::size_t{64}, std::size_t{1021},
                                std::size_t{4096}}) {
    for (std::size_t align = 0; align < 8; ++align) {
      const std::uint8_t* p = buf.data() + align;
      EXPECT_EQ(util::crc32c(p, len), util::crc32c_software(p, len))
          << "len=" << len << " align=" << align;
    }
  }
}

template <typename Plan>
void expect_round_trip(const Plan& fresh, const char* name) {
  const std::vector<std::uint8_t> image = core::serialize_plan(fresh);
  Plan loaded;
  const Status status =
      core::deserialize_plan(std::span<const std::uint8_t>(image), &loaded);
  ASSERT_TRUE(status.ok()) << name << ": " << status.to_string();
  EXPECT_TRUE(loaded.key == fresh.key) << name;
  EXPECT_EQ(loaded.path, fresh.path) << name;
  EXPECT_EQ(loaded.bytes(), fresh.bytes())
      << name << ": bytes() accounting diverged across the round trip";
  // The strongest structural check: re-serializing the loaded plan must
  // reproduce the original file byte for byte.
  EXPECT_EQ(core::serialize_plan(loaded), image) << name;
}

TEST(PlanSerde, CholeskyRoundTripIsByteIdentical) {
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  expect_round_trip(simplicial_plan(a), "simplicial");
  expect_round_trip(supernodal_plan(a), "supernodal");
  expect_round_trip(coarsened_cholesky_plan(a), "coarsened");
  // Format 3 carries no flat level-schedule section.
  EXPECT_EQ(rd<std::uint16_t>(core::serialize_plan(coarsened_cholesky_plan(a)),
                              kSectionCountOffset),
            7);
}

TEST(PlanSerde, TriSolveRoundTripIsByteIdentical) {
  const CscMatrix l = factor_pattern(gen::grid2d_laplacian(25, 25));
  const std::vector<index_t> sparse_beta = {0};
  const std::vector<index_t> full_beta = dense_beta(l.cols());
  expect_round_trip(
      Planner(sequential_config(1e9)).plan_trisolve(l, sparse_beta),
      "pruned");
  expect_round_trip(
      Planner(sequential_config(0.0)).plan_trisolve(l, sparse_beta),
      "blocked");
  expect_round_trip(coarsened_trisolve_plan(l, full_beta), "coarsened");
  EXPECT_EQ(rd<std::uint16_t>(
                core::serialize_plan(coarsened_trisolve_plan(l, full_beta)),
                kSectionCountOffset),
            5);
}

TEST(PlanSerde, StoreDirectoryIsNotPartOfThePlanImage) {
  // Where a plan is stored is a deployment fact, not part of the plan:
  // configs that differ only in plan_store_dir write one image, so a plan
  // file's size does not depend on the store's path and a store copied to
  // another directory carries no stale path.
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  PlannerConfig short_dir = sequential_config(1e9);
  short_dir.options.plan_store_dir = "/p";
  PlannerConfig long_dir = short_dir;
  long_dir.options.plan_store_dir =
      "/var/lib/solver-service/plan-store/" + std::string(200, 'x');
  // Planning times are the only other fields two builds disagree on.
  const auto untimed_image = [](auto plan) {
    plan.evidence.build_seconds = 0.0;
    plan.evidence.phases = {};
    return core::serialize_plan(plan);
  };
  const CholeskyPlan chol = Planner(short_dir).plan_cholesky(a);
  EXPECT_EQ(untimed_image(chol),
            untimed_image(Planner(long_dir).plan_cholesky(a)));
  const CscMatrix l = factor_pattern(a);
  const std::vector<index_t> beta = {0};
  EXPECT_EQ(untimed_image(Planner(short_dir).plan_trisolve(l, beta)),
            untimed_image(Planner(long_dir).plan_trisolve(l, beta)));
}

TEST(PlanSerde, LoadedPlanVerifiesCleanWithZeroFindings) {
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  const CholeskyPlan fresh = coarsened_cholesky_plan(a);
  const std::vector<std::uint8_t> image = core::serialize_plan(fresh);
  CholeskyPlan loaded;
  ASSERT_TRUE(core::deserialize_plan(std::span<const std::uint8_t>(image),
                                     &loaded)
                  .ok());
  const verify::Report report = verify::verify_plan(loaded);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.findings.size(), 0u);

  const CscMatrix l = factor_pattern(a);
  const std::vector<index_t> beta = dense_beta(l.cols());
  const TriSolvePlan tfresh = coarsened_trisolve_plan(l, beta);
  const std::vector<std::uint8_t> timage = core::serialize_plan(tfresh);
  TriSolvePlan tloaded;
  ASSERT_TRUE(core::deserialize_plan(std::span<const std::uint8_t>(timage),
                                     &tloaded)
                  .ok());
  const verify::Report treport = verify::verify_plan(tloaded, l, beta);
  EXPECT_TRUE(treport.ok()) << treport.to_string();
  EXPECT_EQ(treport.findings.size(), 0u);
}

// --------------------------------------------------------- corruption corpus

TEST(CorruptionCorpus, EverySectionOfEveryKindRejectsSixClasses) {
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  // Coarsened parallel + sequential simplicial together exercise every
  // section with a non-trivial payload (rowpat is simplicial-only).
  run_section_corpus<CholeskyPlan>(
      core::serialize_plan(coarsened_cholesky_plan(a)), "chol-coarsened");
  run_section_corpus<CholeskyPlan>(core::serialize_plan(simplicial_plan(a)),
                                   "chol-simplicial");

  const CscMatrix l = factor_pattern(a);
  const std::vector<index_t> sparse_beta = {0};
  run_section_corpus<TriSolvePlan>(
      core::serialize_plan(coarsened_trisolve_plan(l, dense_beta(l.cols()))),
      "tri-coarsened");
  run_section_corpus<TriSolvePlan>(
      core::serialize_plan(
          Planner(sequential_config(0.0)).plan_trisolve(l, sparse_beta)),
      "tri-blocked");
}

TEST(CorruptionCorpus, HeaderLiesAreRejectedWithFixedUpChecksums) {
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  const std::vector<std::uint8_t> image =
      core::serialize_plan(supernodal_plan(a));

  struct Lie {
    const char* what;
    std::size_t offset;
    std::uint64_t value;
    std::size_t width;
    ErrorCode expect;
  };
  const Lie lies[] = {
      {"format version bump", 8, 99, 4, ErrorCode::kStalePlanVersion},
      {"format version 2 (flat schedule section)", 8, 2, 4,
       ErrorCode::kStalePlanVersion},
      {"format version 3 (simplicial zero value array)", 8, 3, 4,
       ErrorCode::kStalePlanVersion},
      {"format version 4 (etree, counts and block-set copies)", 8, 4, 4,
       ErrorCode::kStalePlanVersion},
      {"format version 5 (layout copy of the flop count)", 8, 5, 4,
       ErrorCode::kStalePlanVersion},
      {"format version 6 (jit options and evidence flag)", 8, 6, 4,
       ErrorCode::kStalePlanVersion},
      {"format version 7 (supernodal plans stored L's pattern)", 8, 7, 4,
       ErrorCode::kStalePlanVersion},
      {"format version 8 (column-count switch and average column count)", 8,
       8, 4, ErrorCode::kStalePlanVersion},
      {"foreign endianness", 12, 0x04030201u, 4,
       ErrorCode::kStalePlanVersion},
      {"index ABI", 16, 8, 2, ErrorCode::kStalePlanVersion},
      {"value ABI", 18, 4, 2, ErrorCode::kStalePlanVersion},
      {"kind swap", 20, 2, 2, ErrorCode::kCorruptPlanFile},
      {"section count", kSectionCountOffset, 3, 2,
       ErrorCode::kCorruptPlanFile},
      {"options hash", 24, 0xDEADBEEFull, 8, ErrorCode::kCorruptPlanFile},
      {"file bytes", 88, 128, 8, ErrorCode::kCorruptPlanFile},
  };
  for (const Lie& lie : lies) {
    std::vector<std::uint8_t> b = image;
    if (lie.width == 2) {
      wr<std::uint16_t>(b, lie.offset, static_cast<std::uint16_t>(lie.value));
    } else if (lie.width == 4) {
      wr<std::uint32_t>(b, lie.offset, static_cast<std::uint32_t>(lie.value));
    } else {
      wr<std::uint64_t>(b, lie.offset, lie.value);
    }
    fix_header_crc(b);
    CholeskyPlan out;
    const Status status =
        core::deserialize_plan(std::span<const std::uint8_t>(b), &out);
    EXPECT_EQ(status.code, lie.expect)
        << lie.what << ": " << status.to_string();
  }

  {  // an UNfixed header flip is caught by the header CRC itself
    std::vector<std::uint8_t> b = image;
    b[40] ^= 0x01;  // key.cols
    expect_rejected<CholeskyPlan>(b, "header bit-flip without CRC fixup");
  }
}

TEST(CorruptionCorpus, TruncationSweepAndGarbageFiles) {
  const CscMatrix a = gen::grid2d_laplacian(16, 16);
  const std::vector<std::uint8_t> image =
      core::serialize_plan(simplicial_plan(a));
  const std::size_t cuts[] = {0,
                              1,
                              7,
                              kHeaderCrcOffset,
                              kTableOffset - 1,
                              kTableOffset + kEntrySize,
                              image.size() / 2,
                              image.size() - 1};
  for (const std::size_t cut : cuts) {
    std::vector<std::uint8_t> b(image.begin(),
                                image.begin() + static_cast<long>(cut));
    expect_rejected<CholeskyPlan>(b,
                                  "truncated to " + std::to_string(cut));
  }
  expect_rejected<CholeskyPlan>(std::vector<std::uint8_t>(256, 0xAB),
                                "garbage bytes");
  expect_rejected<TriSolvePlan>(image,
                                "cholesky image read as a trisolve plan");
}

// ----------------------------------------------------------- PlanStore disk

TEST(PlanStoreDisk, SaveLoadRoundTripWithStats) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  const CholeskyPlan fresh = supernodal_plan(a);
  PlanStore store(dir.path);
  ASSERT_TRUE(store.save(fresh).ok());
  EXPECT_TRUE(std::filesystem::exists(store.path_for(fresh.key, true)));

  CholeskyPlan loaded;
  const PlanStore::Loaded got = store.load(fresh.key, &loaded);
  ASSERT_TRUE(got.ok()) << got.status.to_string();
  EXPECT_EQ(core::serialize_plan(loaded), core::serialize_plan(fresh));
  EXPECT_EQ(loaded.bytes(), fresh.bytes());

  const PlanStore::Stats st = store.stats();
  EXPECT_EQ(st.writes, 1u);
  EXPECT_EQ(st.loads, 1u);
  EXPECT_EQ(st.load_failures, 0u);
  EXPECT_EQ(st.write_failures, 0u);

  // Missing key: a plain cold miss, not an error.
  PatternKey other = fresh.key;
  other.structure_hash ^= 1;
  CholeskyPlan none;
  const PlanStore::Loaded miss = store.load(other, &none);
  EXPECT_FALSE(miss.found);
  EXPECT_TRUE(miss.status.ok());

  store.discard(fresh.key, true);
  EXPECT_EQ(store.stats().discards, 1u);
  const PlanStore::Loaded after = store.load(fresh.key, &none);
  EXPECT_FALSE(after.found);
}

TEST(PlanStoreDisk, OnDiskCorruptionIsRejectedNotServed) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  const CholeskyPlan fresh = supernodal_plan(a);
  PlanStore store(dir.path);
  ASSERT_TRUE(store.save(fresh).ok());

  const std::string path = store.path_for(fresh.key, true);
  {  // flip one payload byte in place
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(f.tellg());
    f.seekp(static_cast<long>(size - 9));
    char byte = 0;
    f.seekg(static_cast<long>(size - 9));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<long>(size - 9));
    f.write(&byte, 1);
  }
  CholeskyPlan out;
  const PlanStore::Loaded got = store.load(fresh.key, &out);
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.status.code, ErrorCode::kCorruptPlanFile)
      << got.status.to_string();
  EXPECT_EQ(store.stats().load_failures, 1u);
}

TEST(PlanStoreDisk, FileForTheWrongKeyIsRejectedByTheKeyCrossCheck) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  const CscMatrix b = gen::grid2d_laplacian(21, 21);
  const CholeskyPlan plan_a = supernodal_plan(a);
  const CholeskyPlan plan_b = supernodal_plan(b);
  PlanStore store(dir.path);
  ASSERT_TRUE(store.save(plan_a).ok());

  // A renamed (or hash-colliding) file: plan A's bytes at plan B's path.
  std::filesystem::copy_file(store.path_for(plan_a.key, true),
                             store.path_for(plan_b.key, true));
  CholeskyPlan out;
  const PlanStore::Loaded got = store.load(plan_b.key, &out);
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.status.code, ErrorCode::kCorruptPlanFile);
  EXPECT_NE(got.status.message.find("requested"), std::string::npos);
}

TEST(PlanStoreDisk, StrayTempFilesAreInvisibleToLoad) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  const CholeskyPlan fresh = supernodal_plan(a);
  PlanStore store(dir.path);
  // Simulate a crash mid-save: only a temp exists, never the final name.
  std::filesystem::create_directories(dir.path);
  std::ofstream(store.path_for(fresh.key, true) + ".tmp.999.0")
      << "torn write";
  CholeskyPlan out;
  const PlanStore::Loaded got = store.load(fresh.key, &out);
  EXPECT_FALSE(got.found);
  EXPECT_TRUE(got.status.ok());
}

TEST(PlanStoreDisk, WriteBehindFlushDrainsTheQueue) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  PlanStore store(dir.path);
  auto plan = std::make_shared<const CholeskyPlan>(supernodal_plan(a));
  store.save_async(plan);
  store.flush();
  EXPECT_EQ(store.stats().writes, 1u);
  EXPECT_TRUE(std::filesystem::exists(store.path_for(plan->key, true)));
}

// ---------------------------------------------------- profitability gate

TEST(PlanStoreGate, ShouldPersistTruthTable) {
  // At or under the 4 MiB floor: persisted unconditionally, regardless of
  // how fast the plan was built or how it was planned (deterministic
  // across machines).
  EXPECT_TRUE(PlanStore::should_persist(1024, 0.0, false));
  EXPECT_TRUE(PlanStore::should_persist(1024, 0.0, true));
  EXPECT_TRUE(PlanStore::should_persist(std::size_t{4} << 20, 0.0, false));
  // Above the floor, a memory-bound planner (simplicial pattern fill)
  // never persists — loading the bytes back cannot beat re-filling them,
  // whatever the noisy build timer claimed.
  EXPECT_FALSE(PlanStore::should_persist(std::size_t{64} << 20, 10.0, true));
  // Compute-bound planning is estimated-load vs measured-build: 64 MiB
  // loads in ~32 ms at the assumed 2 GB/s, so a plan built in 1 ms
  // declines (loading would cost 32x the replan it replaces) and a plan
  // built in 1 s persists easily.
  EXPECT_FALSE(
      PlanStore::should_persist(std::size_t{64} << 20, 0.001, false));
  EXPECT_TRUE(PlanStore::should_persist(std::size_t{64} << 20, 1.0, false));
}

TEST(PlanStoreGate, UnprofitablePlansAreDeclinedNotWritten) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  PlanStore store(dir.path);

  // Inflate the plan past the 4 MiB floor with a near-zero build time:
  // the gate must decline it, leaving no file and no writer work.
  CholeskyPlan big = supernodal_plan(a);
  big.sets.rowpat.resize((std::size_t{8} << 20) / sizeof(index_t), 0);
  big.evidence.build_seconds = 0.0;
  store.save_async_if_profitable(
      std::make_shared<const CholeskyPlan>(big));
  store.flush();
  EXPECT_EQ(store.stats().declines, 1u);
  EXPECT_EQ(store.stats().writes, 0u);
  EXPECT_FALSE(std::filesystem::exists(store.path_for(big.key, true)));

  // The same bytes with an honest (expensive) build time persist: the
  // estimated load is now far cheaper than replanning.
  big.evidence.build_seconds = 60.0;
  store.save_async_if_profitable(
      std::make_shared<const CholeskyPlan>(std::move(big)));
  store.flush();
  const PlanStore::Stats st = store.stats();
  EXPECT_EQ(st.declines, 1u);
  EXPECT_EQ(st.writes, 1u);
}

TEST(PlanStoreDisk, TriSolvePlansPersistIndependently) {
  TempDir dir;
  const CscMatrix l = factor_pattern(gen::grid2d_laplacian(16, 16));
  const std::vector<index_t> beta = {0};
  const TriSolvePlan fresh =
      Planner(sequential_config(0.0)).plan_trisolve(l, beta);
  PlanStore store(dir.path);
  ASSERT_TRUE(store.save(fresh).ok());
  TriSolvePlan loaded;
  const PlanStore::Loaded got = store.load(fresh.key, &loaded);
  ASSERT_TRUE(got.ok()) << got.status.to_string();
  EXPECT_EQ(core::serialize_plan(loaded), core::serialize_plan(fresh));
}

// ------------------------------------------------------- injected faults

TEST(PlanStoreFaults, StoreWriteFaultDegradesToUnpersisted) {
  FaultGuard fg;
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  const CholeskyPlan fresh = supernodal_plan(a);
  PlanStore store(dir.path);
  FaultInjector::arm(FaultSite::kStoreWrite, 1);
  const Status status = store.save(fresh);
  EXPECT_EQ(status.code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(store.stats().write_failures, 1u);
  EXPECT_FALSE(std::filesystem::exists(store.path_for(fresh.key, true)));
  FaultInjector::reset();
  EXPECT_TRUE(store.save(fresh).ok());  // and the store recovers
}

TEST(PlanStoreFaults, StoreReadAndChecksumFaultsRejectTheLoad) {
  FaultGuard fg;
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  const CholeskyPlan fresh = supernodal_plan(a);
  PlanStore store(dir.path);
  ASSERT_TRUE(store.save(fresh).ok());

  CholeskyPlan out;
  FaultInjector::arm(FaultSite::kStoreRead, 1);
  PlanStore::Loaded got = store.load(fresh.key, &out);
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.status.code, ErrorCode::kCorruptPlanFile);
  EXPECT_NE(got.status.message.find("injected store-read"),
            std::string::npos);

  FaultInjector::arm(FaultSite::kStoreChecksum, 1);
  got = store.load(fresh.key, &out);
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.status.code, ErrorCode::kCorruptPlanFile);
  EXPECT_NE(got.status.message.find("checksum"), std::string::npos);

  FaultInjector::reset();
  EXPECT_TRUE(store.load(fresh.key, &out).ok());
}

// ------------------------------------------------- facade restart warm-start

/// Factor `a` through a Solver rooted in a FRESH SymbolicContext (a
/// simulated process restart: the in-memory cache starts empty, only the
/// store directory persists) and return the solve result.
std::vector<value_t> restart_factor_solve(const CscMatrix& a,
                                          const api::SolverConfig& config,
                                          api::FactorReport* report) {
  auto context = std::make_shared<api::SymbolicContext>();
  api::Solver solver(config, context);
  solver.factor(a);
  *report = solver.report();
  std::vector<value_t> x = gen::dense_rhs(a.cols(), 77);
  solver.solve(x);
  return x;
}

TEST(RestartWarmStart, LoadedPlanFactorsBitIdenticallyWithoutReplanning) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  api::SolverConfig config;
  config.enable_parallel = false;
  config.options.plan_store_dir = dir.path;

  // Hold the store open so the write-behind instance (and its counters)
  // survives across the simulated restarts.
  auto store = PlanStore::open(dir.path);

  api::FactorReport cold;
  const std::vector<value_t> want = restart_factor_solve(a, config, &cold);
  EXPECT_FALSE(cold.store_loaded);
  store->flush();
  ASSERT_EQ(store->stats().writes, 1u);

  const std::uint64_t transposes_before = core::planner_transpose_count();
  api::FactorReport warm;
  const std::vector<value_t> got = restart_factor_solve(a, config, &warm);
  EXPECT_TRUE(warm.store_loaded) << warm.to_string();
  EXPECT_FALSE(warm.store_recovered);
  EXPECT_FALSE(warm.degraded());
  EXPECT_NE(warm.to_string().find("loaded from store"), std::string::npos);
  EXPECT_EQ(core::planner_transpose_count(), transposes_before)
      << "a store-loaded factor must not replan (no inspector transpose)";
  expect_bits_equal(got, want);
}

#ifdef SYMPILER_HAS_OPENMP
TEST(RestartWarmStart, ParallelPathBitIdenticalAtOneTwoFourThreads) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(40, 40);
  api::SolverConfig config;
  config.enable_parallel = true;
  config.parallel_min_supernodes = 1;
  config.parallel_min_avg_level_width = 0.0;
  config.options.plan_store_dir = dir.path;

  auto store = PlanStore::open(dir.path);
  const int original_threads = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    api::FactorReport cold;
    const std::vector<value_t> want = restart_factor_solve(a, config, &cold);
    store->flush();
    api::FactorReport warm;
    const std::vector<value_t> got = restart_factor_solve(a, config, &warm);
    EXPECT_TRUE(warm.store_loaded)
        << threads << " threads: " << warm.to_string();
    expect_bits_equal(got, want);
  }
  omp_set_num_threads(original_threads);
}
#endif  // SYMPILER_HAS_OPENMP

TEST(RestartWarmStart, CorruptedFileIsDiscardedReplannedAndRewritten) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  api::SolverConfig config;
  config.enable_parallel = false;
  config.options.plan_store_dir = dir.path;

  auto store = PlanStore::open(dir.path);
  api::FactorReport cold;
  const std::vector<value_t> want = restart_factor_solve(a, config, &cold);
  store->flush();

  // Find the persisted file and corrupt one byte of it on disk.
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path))
    if (entry.path().extension() == ".plan") path = entry.path().string();
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-9, std::ios::end);
    const char byte = 0x7F;
    f.write(&byte, 1);
  }

  api::FactorReport recovered;
  const std::vector<value_t> got =
      restart_factor_solve(a, config, &recovered);
  EXPECT_TRUE(recovered.store_recovered) << recovered.to_string();
  EXPECT_TRUE(recovered.degraded());
  EXPECT_NE(recovered.to_string().find("store->replan"), std::string::npos);
  EXPECT_NE(recovered.last_error.code, ErrorCode::kOk);
  expect_bits_equal(got, want);  // rung 4 still factors correctly

  // ...and rewrote the store: the next restart warm-starts cleanly.
  store->flush();
  api::FactorReport rewarmed;
  const std::vector<value_t> again =
      restart_factor_solve(a, config, &rewarmed);
  EXPECT_TRUE(rewarmed.store_loaded) << rewarmed.to_string();
  EXPECT_FALSE(rewarmed.degraded());
  expect_bits_equal(again, want);
}

TEST(RestartWarmStart, VersionThreeSimplicialFileIsRewrittenWithoutValues) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  api::SolverConfig config;
  config.enable_parallel = false;
  config.options.vsblock_min_avg_size = 1e9;  // simplicial plan
  config.options.plan_store_dir = dir.path;

  auto store = PlanStore::open(dir.path);
  api::FactorReport cold;
  const std::vector<value_t> want = restart_factor_solve(a, config, &cold);
  store->flush();
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path))
    if (entry.path().extension() == ".plan") path = entry.path().string();
  ASSERT_FALSE(path.empty());
  const auto read_plan_file = [&path] {
    std::ifstream f(path, std::ios::binary);
    const std::vector<char> raw((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
    CholeskyPlan plan;
    const Status status = core::deserialize_plan(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()),
        &plan);
    EXPECT_TRUE(status.ok()) << status.to_string();
    return plan;
  };

  // Write the file a version-3 build left under the same name: the same
  // plan plus L's zero value array.
  CholeskyPlan old_plan = read_plan_file();
  ASSERT_EQ(old_plan.path, ExecutionPath::Simplicial);
  ASSERT_TRUE(old_plan.sets.sym.l_pattern.values.empty());
  old_plan.sets.sym.l_pattern.values.assign(
      old_plan.sets.sym.l_pattern.rowind.size(), 0.0);
  std::vector<std::uint8_t> image = core::serialize_plan(old_plan);
  wr<std::uint32_t>(image, 8, 3);
  fix_header_crc(image);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  }

  // Rung 4: rejected as stale (not loaded into the cache), replanned,
  // and rewritten in the current version without the array.
  api::FactorReport upgraded;
  expect_bits_equal(restart_factor_solve(a, config, &upgraded), want);
  EXPECT_TRUE(upgraded.store_recovered) << upgraded.to_string();
  EXPECT_EQ(upgraded.last_error.code, ErrorCode::kStalePlanVersion);
  store->flush();
  EXPECT_TRUE(read_plan_file().sets.sym.l_pattern.values.empty());
  api::FactorReport rewarmed;
  expect_bits_equal(restart_factor_solve(a, config, &rewarmed), want);
  EXPECT_TRUE(rewarmed.store_loaded) << rewarmed.to_string();
  EXPECT_FALSE(rewarmed.degraded());
}

TEST(RestartWarmStart, VersionEightFileIsReplannedAndRewrittenAtVersionNine) {
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  api::SolverConfig config;
  config.enable_parallel = false;
  config.options.vsblock_min_avg_size = 0.0;  // supernodal plan
  config.options.vsblock_min_avg_width = 0.0;
  config.options.plan_store_dir = dir.path;

  auto store = PlanStore::open(dir.path);
  api::FactorReport cold;
  const std::vector<value_t> want = restart_factor_solve(a, config, &cold);
  store->flush();
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path))
    if (entry.path().extension() == ".plan") path = entry.path().string();
  ASSERT_FALSE(path.empty());
  const auto file_version = [&path] {
    std::ifstream f(path, std::ios::binary);
    std::uint32_t version = 0;
    f.seekg(8);
    f.read(reinterpret_cast<char*>(&version), sizeof(version));
    return version;
  };
  ASSERT_EQ(file_version(), core::kPlanFormatVersion);

  // Stamp the file with version 8. A version-8 build hashed the retired
  // column-count switch into the options hash, so its file for this
  // pattern lies under another name and is never opened; the stamp stands
  // for any older file the store finds under the current name. The
  // version check comes before any section is read.
  std::vector<std::uint8_t> image;
  {
    std::ifstream f(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
  }
  wr<std::uint32_t>(image, 8, 8);
  fix_header_crc(image);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  }

  // Rung 4: rejected as stale before any section is read, discarded,
  // replanned, and written back in the current version.
  const std::uint64_t discards_before = store->stats().discards;
  api::FactorReport upgraded;
  expect_bits_equal(restart_factor_solve(a, config, &upgraded), want);
  EXPECT_TRUE(upgraded.store_recovered) << upgraded.to_string();
  EXPECT_FALSE(upgraded.store_loaded);
  EXPECT_EQ(upgraded.last_error.code, ErrorCode::kStalePlanVersion);
  EXPECT_EQ(store->stats().discards, discards_before + 1);
  store->flush();
  EXPECT_EQ(file_version(), 9u);
  api::FactorReport rewarmed;
  expect_bits_equal(restart_factor_solve(a, config, &rewarmed), want);
  EXPECT_TRUE(rewarmed.store_loaded) << rewarmed.to_string();
  EXPECT_FALSE(rewarmed.degraded());
}

TEST(RestartWarmStart, TriangularSolverWarmStartsFromTheStore) {
  TempDir dir;
  api::SolverConfig chol_config;
  chol_config.enable_parallel = false;
  api::Solver chol(chol_config, nullptr);
  const CscMatrix a = gen::grid2d_laplacian(24, 24);
  chol.factor(a);
  const CscMatrix l = chol.factor_csc();
  const std::vector<index_t> beta = dense_beta(l.cols());

  api::SolverConfig config;
  config.enable_parallel = false;
  config.options.plan_store_dir = dir.path;
  auto store = PlanStore::open(dir.path);

  std::vector<value_t> want = gen::dense_rhs(l.cols(), 41);
  {
    auto context = std::make_shared<api::SymbolicContext>();
    api::TriangularSolver tri(l, beta, config, context);
    EXPECT_FALSE(tri.report().store_loaded);
    tri.solve(want);
  }
  store->flush();
  ASSERT_GE(store->stats().writes, 1u);

  std::vector<value_t> got = gen::dense_rhs(l.cols(), 41);
  {
    auto context = std::make_shared<api::SymbolicContext>();
    api::TriangularSolver tri(l, beta, config, context);
    EXPECT_TRUE(tri.report().store_loaded) << tri.report().to_string();
    tri.solve(got);
  }
  expect_bits_equal(got, want);
}

TEST(RestartWarmStart, StoreWriteFaultLeavesFactorUndegradedButUnpersisted) {
  FaultGuard fg;
  TempDir dir;
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  api::SolverConfig config;
  config.enable_parallel = false;
  config.options.plan_store_dir = dir.path;

  auto store = PlanStore::open(dir.path);
  FaultInjector::arm(FaultSite::kStoreWrite, 1);
  api::FactorReport report;
  const std::vector<value_t> x = restart_factor_solve(a, config, &report);
  store->flush();
  FaultInjector::reset();

  // The factor itself succeeded; only persistence was lost (absorbed into
  // the store's failure counter — write-behind has no caller to throw to).
  for (const value_t v : x) ASSERT_EQ(v, v);
  EXPECT_EQ(store->stats().writes, 0u);
  EXPECT_EQ(store->stats().write_failures, 1u);
  EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

}  // namespace
}  // namespace sympiler
