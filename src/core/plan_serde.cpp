// Flat plan serialization (plan_serde.h). The writer is straight-line
// append; the reader is a cursor that bounds-checks every scalar and
// count before touching memory, and maps violations onto the taxonomy via
// two internal exceptions (corrupt vs stale) caught at the entry points.
#include "core/plan_serde.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "util/crc32c.h"
#include "util/fault.h"

namespace sympiler::core {

namespace {

constexpr char kMagic[8] = {'S', 'Y', 'M', 'P', 'L', 'A', 'N', '1'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint16_t kKindCholesky = 1;
constexpr std::uint16_t kKindTriSolve = 2;

// Fixed header: magic(8) version(4) endian(4) index/value/kind/sections
// (4 x 2) options_hash(8) key(7 x 8) file_bytes(8) crc(4) pad(4).
constexpr std::size_t kHeaderSize = 104;
constexpr std::size_t kHeaderCrcOffset = 96;
// Section table entry: id(4) crc(4) offset(8) length(8).
constexpr std::size_t kTableEntrySize = 24;
// Table checksum: crc(4) pad(4), appended after the entries.
constexpr std::size_t kTableCrcSize = 8;

enum SectionId : std::uint32_t {
  kSecMeta = 1,      ///< options, path, evidence, workspace, set scalars
  kSecSymbolic = 2,  ///< Cholesky: L pattern
  kSecBlocks = 3,    ///< trisolve: block-set; Cholesky: panel layout
  kSecUpdates = 4,   ///< Cholesky: static update schedule
  kSecRowpat = 5,    ///< Cholesky: simplicial row patterns
  // 6 held the flat level schedule up to format version 2.
  kSecAgg = 7,       ///< aggregate schedule of a parallel path
  kSecSlotMap = 8,   ///< privatized update-slot map
  kSecReach = 9,     ///< trisolve: prune-sets + colcounts
};

constexpr std::uint32_t kCholeskySections[] = {
    kSecMeta,   kSecSymbolic, kSecBlocks, kSecUpdates,
    kSecRowpat, kSecAgg,      kSecSlotMap};
constexpr std::uint32_t kTriSolveSections[] = {kSecMeta, kSecReach, kSecBlocks,
                                               kSecAgg, kSecSlotMap};

/// File fails validation: torn write, bit flip, truncation, hostile count.
struct CorruptError {
  std::string message;
};
/// File is internally consistent but written by an incompatible layout.
struct StaleError {
  std::string message;
};

[[noreturn]] void corrupt(std::string message) {
  throw CorruptError{std::move(message)};
}

// CRC32 lives in util/crc32c.h (hardware-dispatched CRC-32C); serde_crc32
// below is the format's pinned alias for it.

// ------------------------------------------------------------ byte cursors

class Writer {
 public:
  void raw(const void* data, std::size_t len) {
    if (len == 0) return;  // empty vectors hand over data() == nullptr
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  template <typename T>
  void scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(v));
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    scalar<std::uint64_t>(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }
  void str(const std::string& s) {
    scalar<std::uint64_t>(s.size());
    raw(s.data(), s.size());
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked cursor over an untrusted byte span. Every read verifies
/// the remaining length first; a violation throws CorruptError with the
/// caller-supplied field name.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  void raw(void* out, std::size_t len, const char* field) {
    if (len > bytes_.size() - pos_)
      corrupt(std::string(what_) + ": " + field + " runs past the end");
    // len == 0 happens for empty vectors, whose data() may be null —
    // and memcpy's pointer arguments must be non-null even then.
    if (len != 0) std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
  }
  template <typename T>
  [[nodiscard]] T scalar(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    raw(&v, sizeof(v), field);
    return v;
  }
  template <typename T>
  void vec(std::vector<T>* out, const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = scalar<std::uint64_t>(field);
    if (count > (bytes_.size() - pos_) / sizeof(T))
      corrupt(std::string(what_) + ": " + field + " count " +
              std::to_string(count) + " exceeds the section");
    const auto n = static_cast<std::size_t>(count);
    const std::uint8_t* src = bytes_.data() + pos_;
    if (reinterpret_cast<std::uintptr_t>(src) % alignof(T) == 0) {
      // Aligned (the common case: sections are 8-aligned and counts are
      // u64): assign straight from the image — one copy, no
      // value-initializing resize(). The multi-megabyte pattern arrays
      // make that second pass real money on the restart-warm load path.
      const T* first = reinterpret_cast<const T*>(src);
      out->assign(first, first + n);
      pos_ += n * sizeof(T);
    } else {
      out->resize(n);
      raw(out->data(), n * sizeof(T), field);
    }
  }
  void str(std::string* out, const char* field) {
    const auto count = scalar<std::uint64_t>(field);
    if (count > bytes_.size() - pos_)
      corrupt(std::string(what_) + ": " + field + " length " +
              std::to_string(count) + " exceeds the section");
    out->assign(reinterpret_cast<const char*>(bytes_.data() + pos_),
                static_cast<std::size_t>(count));
    pos_ += static_cast<std::size_t>(count);
  }
  /// Every section parser must consume its payload exactly — leftover
  /// bytes mean the content is not what the section id claims (the
  /// section-swap corruption shape).
  void expect_done() const {
    if (pos_ != bytes_.size())
      corrupt(std::string(what_) + ": " +
              std::to_string(bytes_.size() - pos_) + " trailing bytes");
  }

 private:
  std::span<const std::uint8_t> bytes_;
  const char* what_;
  std::size_t pos_ = 0;
};

// -------------------------------------------------- component serializers

void put_options(Writer& w, const SympilerOptions& o) {
  w.scalar<std::uint8_t>(o.vs_block);
  w.scalar<std::uint8_t>(o.vi_prune);
  w.scalar<std::uint8_t>(o.low_level);
  w.scalar<double>(o.vsblock_min_avg_size);
  w.scalar<double>(o.vsblock_min_avg_width);
  w.scalar<double>(o.blas_switch_colcount);
  w.scalar<index_t>(o.peel_colcount);
  w.scalar<index_t>(o.max_supernode_width);
  w.scalar<std::uint32_t>(static_cast<std::uint32_t>(o.jit));
  w.scalar<index_t>(o.jit_warm_calls);
  w.scalar<index_t>(o.jit_max_source_kb);
  w.scalar<std::uint8_t>(o.validate_input);
  w.scalar<std::uint8_t>(o.scan_values);
  w.scalar<index_t>(o.shift_attempts);
  w.scalar<std::uint8_t>(o.guard_workspace);
  w.scalar<std::uint8_t>(o.verify_plan);
}

void get_options(Reader& r, SympilerOptions* o) {
  o->vs_block = r.scalar<std::uint8_t>("vs_block") != 0;
  o->vi_prune = r.scalar<std::uint8_t>("vi_prune") != 0;
  o->low_level = r.scalar<std::uint8_t>("low_level") != 0;
  o->vsblock_min_avg_size = r.scalar<double>("vsblock_min_avg_size");
  o->vsblock_min_avg_width = r.scalar<double>("vsblock_min_avg_width");
  o->blas_switch_colcount = r.scalar<double>("blas_switch_colcount");
  o->peel_colcount = r.scalar<index_t>("peel_colcount");
  o->max_supernode_width = r.scalar<index_t>("max_supernode_width");
  const auto jit = r.scalar<std::uint32_t>("jit");
  if (jit > static_cast<std::uint32_t>(JitMode::kAlways))
    corrupt("meta: jit mode " + std::to_string(jit) + " out of range");
  o->jit = static_cast<JitMode>(jit);
  o->jit_warm_calls = r.scalar<index_t>("jit_warm_calls");
  o->jit_max_source_kb = r.scalar<index_t>("jit_max_source_kb");
  o->validate_input = r.scalar<std::uint8_t>("validate_input") != 0;
  o->scan_values = r.scalar<std::uint8_t>("scan_values") != 0;
  o->shift_attempts = r.scalar<index_t>("shift_attempts");
  o->guard_workspace = r.scalar<std::uint8_t>("guard_workspace") != 0;
  o->verify_plan = r.scalar<std::uint8_t>("verify_plan") != 0;
}

void put_evidence(Writer& w, const PlanEvidence& e) {
  w.scalar<std::uint8_t>(e.vs_block_profitable);
  w.scalar<std::uint8_t>(e.parallel_considered);
  w.scalar<double>(e.avg_supernode_size);
  w.scalar<index_t>(e.fundamental_supernodes);
  w.scalar<index_t>(e.supernodes);
  w.scalar<index_t>(e.levels);
  w.scalar<double>(e.avg_level_width);
  w.scalar<index_t>(e.agg_levels);
  w.scalar<index_t>(e.agg_tasks);
  w.scalar<index_t>(e.agg_bundles);
  w.scalar<double>(e.build_seconds);
  w.scalar<std::uint8_t>(e.jit_eligible);
  w.scalar<PlanPhaseTimes>(e.phases);  // 8 doubles, trivially copyable
}

void get_evidence(Reader& r, PlanEvidence* e) {
  e->vs_block_profitable = r.scalar<std::uint8_t>("vs_block_profitable") != 0;
  e->parallel_considered = r.scalar<std::uint8_t>("parallel_considered") != 0;
  e->avg_supernode_size = r.scalar<double>("avg_supernode_size");
  e->fundamental_supernodes = r.scalar<index_t>("fundamental_supernodes");
  e->supernodes = r.scalar<index_t>("supernodes");
  e->levels = r.scalar<index_t>("levels");
  e->avg_level_width = r.scalar<double>("avg_level_width");
  e->agg_levels = r.scalar<index_t>("agg_levels");
  e->agg_tasks = r.scalar<index_t>("agg_tasks");
  e->agg_bundles = r.scalar<index_t>("agg_bundles");
  e->build_seconds = r.scalar<double>("build_seconds");
  e->jit_eligible = r.scalar<std::uint8_t>("jit_eligible") != 0;
  e->phases = r.scalar<PlanPhaseTimes>("phases");
}

void put_workspace(Writer& w, const WorkspaceDims& d) {
  w.scalar<index_t>(d.n);
  w.scalar<index_t>(d.max_panel_rows);
  w.scalar<index_t>(d.max_panel_width);
  w.scalar<index_t>(d.max_tail);
  w.scalar<index_t>(d.rhs_block);
  w.scalar<index_t>(d.update_slots);
  w.scalar<std::uint8_t>(d.need_map);
  w.scalar<std::uint8_t>(d.need_dense);
}

void get_workspace(Reader& r, WorkspaceDims* d) {
  d->n = r.scalar<index_t>("ws.n");
  d->max_panel_rows = r.scalar<index_t>("ws.max_panel_rows");
  d->max_panel_width = r.scalar<index_t>("ws.max_panel_width");
  d->max_tail = r.scalar<index_t>("ws.max_tail");
  d->rhs_block = r.scalar<index_t>("ws.rhs_block");
  d->update_slots = r.scalar<index_t>("ws.update_slots");
  d->need_map = r.scalar<std::uint8_t>("ws.need_map") != 0;
  d->need_dense = r.scalar<std::uint8_t>("ws.need_dense") != 0;
}

void put_csc(Writer& w, const CscMatrix& m) {
  w.scalar<index_t>(m.rows());
  w.scalar<index_t>(m.cols());
  w.vec(m.colptr);
  w.vec(m.rowind);
  w.scalar<std::uint8_t>(!m.values.empty());
  if (!m.values.empty()) w.vec(m.values);
}

void get_csc(Reader& r, CscMatrix* out) {
  const auto nrows = r.scalar<index_t>("csc.nrows");
  const auto ncols = r.scalar<index_t>("csc.ncols");
  if (nrows < 0 || ncols < 0)
    corrupt("csc: negative shape " + std::to_string(nrows) + "x" +
            std::to_string(ncols));
  CscMatrix m(nrows, ncols);
  r.vec(&m.colptr, "csc.colptr");
  r.vec(&m.rowind, "csc.rowind");
  if (r.scalar<std::uint8_t>("csc.has_values") != 0)
    r.vec(&m.values, "csc.values");
  else
    m.values.clear();
  *out = std::move(m);
}

// ------------------------------------------------------------- file layout

struct Header {
  std::uint16_t kind = 0;
  std::uint16_t section_count = 0;
  std::uint64_t options_hash = 0;
  PatternKey key;
};

struct TableEntry {
  std::uint32_t id = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

void pad_to_8(std::vector<std::uint8_t>& buf) {
  while (buf.size() % 8 != 0) buf.push_back(0);
}

std::vector<std::uint8_t> assemble(
    std::uint16_t kind, const PatternKey& key, std::uint64_t options_hash,
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
        sections) {
  const std::size_t table_size =
      sections.size() * kTableEntrySize + kTableCrcSize;
  std::vector<std::uint8_t> file(kHeaderSize + table_size, 0);
  pad_to_8(file);
  const std::size_t table_offset = kHeaderSize;

  std::vector<TableEntry> table(sections.size());
  for (std::size_t s = 0; s < sections.size(); ++s) {
    pad_to_8(file);
    table[s].id = sections[s].first;
    table[s].offset = file.size();
    table[s].length = sections[s].second.size();
    table[s].crc =
        serde_crc32(sections[s].second.data(), sections[s].second.size());
    file.insert(file.end(), sections[s].second.begin(),
                sections[s].second.end());
  }

  Writer hw;
  hw.raw(kMagic, sizeof(kMagic));
  hw.scalar<std::uint32_t>(kPlanFormatVersion);
  hw.scalar<std::uint32_t>(kEndianTag);
  hw.scalar<std::uint16_t>(static_cast<std::uint16_t>(sizeof(index_t)));
  hw.scalar<std::uint16_t>(static_cast<std::uint16_t>(sizeof(value_t)));
  hw.scalar<std::uint16_t>(kind);
  hw.scalar<std::uint16_t>(static_cast<std::uint16_t>(sections.size()));
  hw.scalar<std::uint64_t>(options_hash);
  hw.scalar<std::int64_t>(key.rows);
  hw.scalar<std::int64_t>(key.cols);
  hw.scalar<std::int64_t>(key.nnz);
  hw.scalar<std::int64_t>(key.rhs_nnz);
  hw.scalar<std::uint64_t>(key.structure_hash);
  hw.scalar<std::uint64_t>(key.structure_hash2);
  hw.scalar<std::uint64_t>(key.config_hash);
  hw.scalar<std::uint64_t>(file.size());
  const std::vector<std::uint8_t> head = hw.take();
  std::memcpy(file.data(), head.data(), kHeaderCrcOffset);
  const std::uint32_t header_crc = serde_crc32(file.data(), kHeaderCrcOffset);
  std::memcpy(file.data() + kHeaderCrcOffset, &header_crc,
              sizeof(header_crc));

  Writer tw;
  for (const TableEntry& e : table) {
    tw.scalar<std::uint32_t>(e.id);
    tw.scalar<std::uint32_t>(e.crc);
    tw.scalar<std::uint64_t>(e.offset);
    tw.scalar<std::uint64_t>(e.length);
  }
  const std::vector<std::uint8_t> tbl = tw.take();
  std::memcpy(file.data() + table_offset, tbl.data(), tbl.size());
  const std::uint32_t table_crc =
      serde_crc32(file.data() + table_offset, tbl.size());
  std::memcpy(file.data() + table_offset + tbl.size(), &table_crc,
              sizeof(table_crc));
  return file;
}

/// Validate magic, CRCs, version/ABI tags, and the section table against
/// the taxonomy, returning the per-id section payload spans.
Header parse_envelope(
    std::span<const std::uint8_t> bytes,
    std::span<const std::uint32_t> expected_sections,
    std::vector<std::span<const std::uint8_t>>* sections_by_id) {
  if (bytes.size() < kHeaderSize) corrupt("file shorter than the header");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    corrupt("bad magic — not a plan file");
  std::uint32_t header_crc = 0;
  std::memcpy(&header_crc, bytes.data() + kHeaderCrcOffset,
              sizeof(header_crc));
  if (serde_crc32(bytes.data(), kHeaderCrcOffset) != header_crc)
    corrupt("header checksum mismatch");

  Reader r(bytes.subspan(sizeof(kMagic), kHeaderCrcOffset - sizeof(kMagic)),
           "header");
  const auto version = r.scalar<std::uint32_t>("format_version");
  const auto endian = r.scalar<std::uint32_t>("endian_tag");
  const auto index_size = r.scalar<std::uint16_t>("index_size");
  const auto value_size = r.scalar<std::uint16_t>("value_size");
  if (version != kPlanFormatVersion)
    throw StaleError{"format version " + std::to_string(version) +
                     ", this build reads " +
                     std::to_string(kPlanFormatVersion)};
  if (endian != kEndianTag) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", endian);
    throw StaleError{"foreign endianness (tag 0x" + std::string(hex) + ")"};
  }
  if (index_size != sizeof(index_t) || value_size != sizeof(value_t))
    throw StaleError{"index/value ABI " + std::to_string(index_size) + "/" +
                     std::to_string(value_size) + ", this build uses " +
                     std::to_string(sizeof(index_t)) + "/" +
                     std::to_string(sizeof(value_t))};

  Header h;
  h.kind = r.scalar<std::uint16_t>("kind");
  h.section_count = r.scalar<std::uint16_t>("section_count");
  h.options_hash = r.scalar<std::uint64_t>("options_hash");
  h.key.rows = static_cast<index_t>(r.scalar<std::int64_t>("key.rows"));
  h.key.cols = static_cast<index_t>(r.scalar<std::int64_t>("key.cols"));
  h.key.nnz = static_cast<index_t>(r.scalar<std::int64_t>("key.nnz"));
  h.key.rhs_nnz = static_cast<index_t>(r.scalar<std::int64_t>("key.rhs_nnz"));
  h.key.structure_hash = r.scalar<std::uint64_t>("key.structure_hash");
  h.key.structure_hash2 = r.scalar<std::uint64_t>("key.structure_hash2");
  h.key.config_hash = r.scalar<std::uint64_t>("key.config_hash");
  const auto file_bytes = r.scalar<std::uint64_t>("file_bytes");
  if (file_bytes != bytes.size())
    corrupt("file is " + std::to_string(bytes.size()) +
            " bytes, header records " + std::to_string(file_bytes));
  if (h.section_count != expected_sections.size())
    corrupt("section count " + std::to_string(h.section_count) +
            ", this kind has " + std::to_string(expected_sections.size()));

  const std::size_t table_size =
      h.section_count * kTableEntrySize + kTableCrcSize;
  if (bytes.size() - kHeaderSize < table_size)
    corrupt("section table runs past the end");
  const std::size_t table_end =
      kHeaderSize + h.section_count * kTableEntrySize;
  std::uint32_t table_crc = 0;
  std::memcpy(&table_crc, bytes.data() + table_end, sizeof(table_crc));
  if (serde_crc32(bytes.data() + kHeaderSize,
                  h.section_count * kTableEntrySize) != table_crc)
    corrupt("section table checksum mismatch");

  sections_by_id->assign(kSecReach + 1, {});
  Reader tr(bytes.subspan(kHeaderSize, h.section_count * kTableEntrySize),
            "section table");
  for (std::uint16_t s = 0; s < h.section_count; ++s) {
    TableEntry e;
    e.id = tr.scalar<std::uint32_t>("id");
    e.crc = tr.scalar<std::uint32_t>("crc");
    e.offset = tr.scalar<std::uint64_t>("offset");
    e.length = tr.scalar<std::uint64_t>("length");
    const std::string label = "section " + std::to_string(e.id);
    if (e.id == 0 || e.id > kSecReach) corrupt(label + ": unknown id");
    if ((*sections_by_id)[e.id].data() != nullptr)
      corrupt(label + ": duplicate id");
    if (e.offset < table_end + kTableCrcSize || e.offset > bytes.size() ||
        e.length > bytes.size() - e.offset)
      corrupt(label + ": extent [" + std::to_string(e.offset) + ", +" +
              std::to_string(e.length) + ") outside the file");
    const auto payload =
        bytes.subspan(static_cast<std::size_t>(e.offset),
                      static_cast<std::size_t>(e.length));
    if (serde_crc32(payload.data(), payload.size()) != e.crc ||
        SYMPILER_FAULT_POINT(util::FaultSite::kStoreChecksum))
      corrupt(label + ": checksum mismatch");
    (*sections_by_id)[e.id] = payload;
  }
  for (const std::uint32_t id : expected_sections)
    if ((*sections_by_id)[id].data() == nullptr)
      corrupt("section " + std::to_string(id) + ": missing");
  return h;
}

Reader section_reader(
    const std::vector<std::span<const std::uint8_t>>& sections,
    std::uint32_t id, const char* what) {
  return {sections[id], what};
}

// The deserialized options must hash to the header's options-hash — a
// mismatch means the meta section decoded to different plan-shaping knobs
// than the file was written under. The header key's config_hash is NOT
// compared here: the Planner folds its gate configuration into it on top
// of hash_options (planner.cpp gate_hash), and the store's load path
// cross-checks the whole key against the caller's request instead.
void check_options_hash(const Header& h, const SympilerOptions& options) {
  if (hash_options(options) != h.options_hash)
    corrupt("meta: options do not hash to the header's options-hash");
}

Status run_deserialize(void (*body)(void*), void* ctx) {
  try {
    body(ctx);
    return {};
  } catch (const CorruptError& e) {
    return {ErrorCode::kCorruptPlanFile, e.message};
  } catch (const StaleError& e) {
    return {ErrorCode::kStalePlanVersion, e.message};
  }
}

}  // namespace

std::uint32_t serde_crc32(const void* data, std::size_t len) {
  return util::crc32c(data, len);
}

// ---------------------------------------------------------------- Cholesky

std::vector<std::uint8_t> serialize_plan(const CholeskyPlan& plan) {
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> sections;

  Writer meta;
  put_options(meta, plan.options);
  meta.scalar<std::uint32_t>(static_cast<std::uint32_t>(plan.path));
  put_evidence(meta, plan.evidence);
  put_workspace(meta, plan.workspace);
  meta.scalar<double>(plan.sets.avg_supernode_size);
  meta.scalar<double>(plan.sets.avg_colcount);
  meta.scalar<std::uint8_t>(plan.sets.vs_block_profitable);
  meta.scalar<std::int64_t>(plan.sets.sym.fill_nnz);
  meta.scalar<double>(plan.sets.sym.flops);
  meta.scalar<index_t>(plan.sets.layout.n);
  meta.scalar<double>(plan.sets.layout.flops);
  sections.emplace_back(kSecMeta, meta.take());

  Writer sym;
  put_csc(sym, plan.sets.sym.l_pattern);
  sections.emplace_back(kSecSymbolic, sym.take());

  Writer blocks;
  blocks.vec(plan.sets.layout.sn.start);
  blocks.vec(plan.sets.layout.sn.col_to_super);
  blocks.vec(plan.sets.layout.srow_ptr);
  blocks.vec(plan.sets.layout.srows);
  blocks.vec(plan.sets.layout.panel_ptr);
  sections.emplace_back(kSecBlocks, blocks.take());

  Writer updates;
  updates.vec(plan.sets.updates.ptr);
  updates.vec(plan.sets.updates.refs);
  sections.emplace_back(kSecUpdates, updates.take());

  Writer rowpat;
  rowpat.vec(plan.sets.rowpat_ptr);
  rowpat.vec(plan.sets.rowpat);
  sections.emplace_back(kSecRowpat, rowpat.take());

  Writer agg;
  agg.vec(plan.agg.level_ptr);
  agg.vec(plan.agg.task_ptr);
  agg.vec(plan.agg.items);
  agg.vec(plan.agg.bundle);
  sections.emplace_back(kSecAgg, agg.take());

  Writer slots;
  slots.vec(plan.solve_update_map.slot);
  slots.vec(plan.solve_update_map.row_ptr);
  sections.emplace_back(kSecSlotMap, slots.take());

  return assemble(kKindCholesky, plan.key, hash_options(plan.options),
                  std::move(sections));
}

Status deserialize_plan(std::span<const std::uint8_t> bytes,
                        CholeskyPlan* out) {
  struct Ctx {
    std::span<const std::uint8_t> bytes;
    CholeskyPlan* out;
  } ctx{bytes, out};
  return run_deserialize([](void* vc) {
    auto& c = *static_cast<Ctx*>(vc);
    std::vector<std::span<const std::uint8_t>> sections;
    const Header h = parse_envelope(c.bytes, kCholeskySections, &sections);
    if (h.kind != kKindCholesky)
      corrupt("header kind " + std::to_string(h.kind) +
              " is not a Cholesky plan");

    CholeskyPlan plan;
    plan.key = h.key;

    Reader meta = section_reader(sections, kSecMeta, "meta");
    get_options(meta, &plan.options);
    const auto path = meta.scalar<std::uint32_t>("path");
    if (path > static_cast<std::uint32_t>(ExecutionPath::ParallelSupernodal))
      corrupt("meta: path " + std::to_string(path) +
              " is not a Cholesky path");
    plan.path = static_cast<ExecutionPath>(path);
    get_evidence(meta, &plan.evidence);
    get_workspace(meta, &plan.workspace);
    plan.sets.avg_supernode_size = meta.scalar<double>("avg_supernode_size");
    plan.sets.avg_colcount = meta.scalar<double>("avg_colcount");
    plan.sets.vs_block_profitable =
        meta.scalar<std::uint8_t>("vs_block_profitable") != 0;
    plan.sets.sym.fill_nnz = meta.scalar<std::int64_t>("fill_nnz");
    plan.sets.sym.flops = meta.scalar<double>("sym.flops");
    plan.sets.layout.n = meta.scalar<index_t>("layout.n");
    plan.sets.layout.flops = meta.scalar<double>("layout.flops");
    meta.expect_done();
    check_options_hash(h, plan.options);

    Reader sym = section_reader(sections, kSecSymbolic, "symbolic");
    get_csc(sym, &plan.sets.sym.l_pattern);
    sym.expect_done();

    Reader blocks = section_reader(sections, kSecBlocks, "blocks");
    blocks.vec(&plan.sets.layout.sn.start, "layout.sn.start");
    blocks.vec(&plan.sets.layout.sn.col_to_super, "layout.sn.col_to_super");
    blocks.vec(&plan.sets.layout.srow_ptr, "layout.srow_ptr");
    blocks.vec(&plan.sets.layout.srows, "layout.srows");
    blocks.vec(&plan.sets.layout.panel_ptr, "layout.panel_ptr");
    blocks.expect_done();

    Reader updates = section_reader(sections, kSecUpdates, "updates");
    updates.vec(&plan.sets.updates.ptr, "updates.ptr");
    updates.vec(&plan.sets.updates.refs, "updates.refs");
    updates.expect_done();

    Reader rowpat = section_reader(sections, kSecRowpat, "rowpat");
    rowpat.vec(&plan.sets.rowpat_ptr, "rowpat_ptr");
    rowpat.vec(&plan.sets.rowpat, "rowpat");
    rowpat.expect_done();

    Reader agg = section_reader(sections, kSecAgg, "agg");
    agg.vec(&plan.agg.level_ptr, "agg.level_ptr");
    agg.vec(&plan.agg.task_ptr, "agg.task_ptr");
    agg.vec(&plan.agg.items, "agg.items");
    agg.vec(&plan.agg.bundle, "agg.bundle");
    agg.expect_done();

    Reader slots = section_reader(sections, kSecSlotMap, "slotmap");
    slots.vec(&plan.solve_update_map.slot, "slot");
    slots.vec(&plan.solve_update_map.row_ptr, "row_ptr");
    slots.expect_done();

    *c.out = std::move(plan);
  }, &ctx);
}

// ---------------------------------------------------------------- TriSolve

std::vector<std::uint8_t> serialize_plan(const TriSolvePlan& plan) {
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> sections;

  Writer meta;
  put_options(meta, plan.options);
  meta.scalar<std::uint32_t>(static_cast<std::uint32_t>(plan.path));
  put_evidence(meta, plan.evidence);
  put_workspace(meta, plan.workspace);
  meta.scalar<double>(plan.sets.avg_supernode_size);
  meta.scalar<std::uint8_t>(plan.sets.vs_block_profitable);
  meta.scalar<double>(plan.sets.flops);
  sections.emplace_back(kSecMeta, meta.take());

  Writer reach;
  reach.vec(plan.sets.reach);
  reach.vec(plan.sets.sn_reach);
  reach.vec(plan.sets.sn_first_col);
  reach.vec(plan.sets.colcount);
  sections.emplace_back(kSecReach, reach.take());

  Writer blocks;
  blocks.vec(plan.sets.blocks.start);
  blocks.vec(plan.sets.blocks.col_to_super);
  sections.emplace_back(kSecBlocks, blocks.take());

  Writer agg;
  agg.vec(plan.agg.level_ptr);
  agg.vec(plan.agg.task_ptr);
  agg.vec(plan.agg.items);
  agg.vec(plan.agg.bundle);
  sections.emplace_back(kSecAgg, agg.take());

  Writer slots;
  slots.vec(plan.update_map.slot);
  slots.vec(plan.update_map.row_ptr);
  sections.emplace_back(kSecSlotMap, slots.take());

  return assemble(kKindTriSolve, plan.key, hash_options(plan.options),
                  std::move(sections));
}

Status deserialize_plan(std::span<const std::uint8_t> bytes,
                        TriSolvePlan* out) {
  struct Ctx {
    std::span<const std::uint8_t> bytes;
    TriSolvePlan* out;
  } ctx{bytes, out};
  return run_deserialize([](void* vc) {
    auto& c = *static_cast<Ctx*>(vc);
    std::vector<std::span<const std::uint8_t>> sections;
    const Header h = parse_envelope(c.bytes, kTriSolveSections, &sections);
    if (h.kind != kKindTriSolve)
      corrupt("header kind " + std::to_string(h.kind) +
              " is not a trisolve plan");

    TriSolvePlan plan;
    plan.key = h.key;

    Reader meta = section_reader(sections, kSecMeta, "meta");
    get_options(meta, &plan.options);
    const auto path = meta.scalar<std::uint32_t>("path");
    if (path < static_cast<std::uint32_t>(ExecutionPath::PrunedTriSolve) ||
        path > static_cast<std::uint32_t>(ExecutionPath::ParallelTriSolve))
      corrupt("meta: path " + std::to_string(path) +
              " is not a trisolve path");
    plan.path = static_cast<ExecutionPath>(path);
    get_evidence(meta, &plan.evidence);
    get_workspace(meta, &plan.workspace);
    plan.sets.avg_supernode_size = meta.scalar<double>("avg_supernode_size");
    plan.sets.vs_block_profitable =
        meta.scalar<std::uint8_t>("vs_block_profitable") != 0;
    plan.sets.flops = meta.scalar<double>("flops");
    meta.expect_done();
    check_options_hash(h, plan.options);

    Reader reach = section_reader(sections, kSecReach, "reach");
    reach.vec(&plan.sets.reach, "reach");
    reach.vec(&plan.sets.sn_reach, "sn_reach");
    reach.vec(&plan.sets.sn_first_col, "sn_first_col");
    reach.vec(&plan.sets.colcount, "colcount");
    reach.expect_done();

    Reader blocks = section_reader(sections, kSecBlocks, "blocks");
    blocks.vec(&plan.sets.blocks.start, "blocks.start");
    blocks.vec(&plan.sets.blocks.col_to_super, "blocks.col_to_super");
    blocks.expect_done();

    Reader agg = section_reader(sections, kSecAgg, "agg");
    agg.vec(&plan.agg.level_ptr, "agg.level_ptr");
    agg.vec(&plan.agg.task_ptr, "agg.task_ptr");
    agg.vec(&plan.agg.items, "agg.items");
    agg.vec(&plan.agg.bundle, "agg.bundle");
    agg.expect_done();

    Reader slots = section_reader(sections, kSecSlotMap, "slotmap");
    slots.vec(&plan.update_map.slot, "slot");
    slots.vec(&plan.update_map.row_ptr, "row_ptr");
    slots.expect_done();

    *c.out = std::move(plan);
  }, &ctx);
}

}  // namespace sympiler::core
