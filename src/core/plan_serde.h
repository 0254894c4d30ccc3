// Versioned flat serialization of ExecutionPlan (docs/persistence.md).
//
// A plan is a pure function of (pattern, options), so its serialized form
// is a cacheable artifact: PlanStore (plan_store.h) writes these files
// crash-safely and loads them on cache misses to skip cold planning after
// a restart. The layout is a fixed little-host-endian header (magic,
// format version, endianness/ABI tag, options hash, PatternKey), a section
// table of {id, CRC32, offset, length} entries, then 8-aligned flat
// sections — mmap-friendly: every array is a contiguous count-prefixed
// run at a table-addressed offset, nothing is position-dependent beyond
// the table.
//
// The deserializer treats every on-disk offset, count, and index as
// hostile: all reads are cursor-bounds-checked, every section must land
// inside the file and match its CRC, and every array count must fit the
// remaining section bytes. A violation returns a structured Status —
// kCorruptPlanFile for torn/flipped/truncated data, kStalePlanVersion for
// internally consistent files written by an incompatible layout (unknown
// format version, foreign endianness, different index/value ABI). The
// loader checks *shape*; semantic invariants (schedule legality, slot-map
// race freedom) are the verifier's job — PlanStore consumers re-verify
// every loaded plan via verify::verify_plan before publication.
//
// Not serialized: JitSlot (compiled kernels are process-local artifacts —
// loaded plans start with a fresh empty slot), and
// SympilerOptions::plan_store_dir (where a plan is stored is a deployment
// fact, not part of the plan: loaded plans carry it empty, and a plan's
// file image is the same under any store).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/execution_plan.h"
#include "util/status.h"

namespace sympiler::core {

/// Bumped on any layout change; a mismatch loads as kStalePlanVersion.
/// Version 2: the relax_supernodes/relax_ratio option fields are gone, the
/// evidence records the fundamental supernode count, and supernodal plans
/// carry amalgamated layouts. Version 3: the flat level-schedule section
/// is gone; parallel plans persist only their aggregate schedule. Version
/// 4: simplicial plans no longer carry L's zero value array. Version 5:
/// Cholesky plans no longer carry the etree, the column counts or a
/// separate block-set, and no plan records the store directory. Version
/// 6: the Cholesky meta section drops the layout's copy of the flop count.
/// Version 7: the meta section drops the jit dispatch options (mode, warm
/// call count, source cap) and the evidence's jit-eligibility flag.
/// Version 8: the Cholesky symbolic section holds two patterns, L's and
/// A's lower triangle; simplicial plans fill L's, supernodal plans A's.
/// Version 9: the peeled supernodal update is gone, so the options drop
/// its column-count switch and the Cholesky meta section drops the
/// average column count the switch read.
inline constexpr std::uint32_t kPlanFormatVersion = 9;

/// Serialize a plan into its flat file image (header + section table +
/// sections). Pure function of the plan; never fails.
[[nodiscard]] std::vector<std::uint8_t> serialize_plan(
    const CholeskyPlan& plan);
[[nodiscard]] std::vector<std::uint8_t> serialize_plan(
    const TriSolvePlan& plan);

/// Deserialize a file image into `*out`. On success `*out` is a complete
/// plan (fresh empty JitSlot) and the Status is kOk. On failure `*out` is
/// unspecified and the Status carries kCorruptPlanFile or
/// kStalePlanVersion with a message naming the first violated check.
[[nodiscard]] Status deserialize_plan(std::span<const std::uint8_t> bytes,
                                      CholeskyPlan* out);
[[nodiscard]] Status deserialize_plan(std::span<const std::uint8_t> bytes,
                                      TriSolvePlan* out);

/// The checksum the format uses for header and section integrity:
/// CRC-32C (Castagnoli, polynomial 0x82F63B78; util/crc32c.h, hardware
/// SSE4.2 path with a portable fallback). Exposed so tests can craft
/// internally consistent header lies (e.g. an out-of-file section offset
/// with a fixed-up CRC).
[[nodiscard]] std::uint32_t serde_crc32(const void* data, std::size_t len);

}  // namespace sympiler::core
