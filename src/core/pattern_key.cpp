#include "core/pattern_key.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>

namespace sympiler::core {

namespace {

// FNV-1a, 64-bit. Two streams with different offset bases give the key its
// effective 128 bits of structural identity.
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t kFnvOffset1 = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvOffset2 = 0x9e3779b97f4a7c15ULL;

void fnv_mix(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

// One FNV step per index instead of per byte: keys are hashed on every
// facade entry (the warm path's only symbolic cost), so hashing must stay
// a small fraction of a numeric solve even at millions of nonzeros. Each
// chain is one dependent multiply per index, so the two streams are
// stepped side by side (h1 over a, h2 over b, equal lengths) to overlap
// their latencies.
void fnv_mix_indices2(std::uint64_t& h1, const index_t* a, std::uint64_t& h2,
                      const index_t* b, std::size_t len) {
  std::uint64_t x1 = h1;
  std::uint64_t x2 = h2;
  for (std::size_t i = 0; i < len; ++i) {
    x1 = (x1 ^ static_cast<std::uint32_t>(a[i])) * kFnvPrime;
    x2 = (x2 ^ static_cast<std::uint32_t>(b[i])) * kFnvPrime;
  }
  h1 = x1;
  h2 = x2;
}

/// h1 over colptr||rowind and h2 over rowind||colptr, stepped together:
/// both concatenations have the same length, and between their segment
/// cuts (at |colptr| for h1, at |rowind| for h2) each chain reads one
/// contiguous array, so three two-chain runs cover them.
void fnv_mix_crossed(std::uint64_t& h1, std::uint64_t& h2,
                     std::span<const index_t> colptr,
                     std::span<const index_t> rowind) {
  const std::size_t nc = colptr.size();
  const std::size_t nr = rowind.size();
  const std::size_t cut1 = std::min(nc, nr);
  const std::size_t cut2 = std::max(nc, nr);
  // Position k of h1's input is colptr[k] below nc, rowind[k - nc] above;
  // of h2's, rowind[k] below nr, colptr[k - nr] above.
  const auto in1 = [&](std::size_t k) {
    return k < nc ? colptr.data() + k : rowind.data() + (k - nc);
  };
  const auto in2 = [&](std::size_t k) {
    return k < nr ? rowind.data() + k : colptr.data() + (k - nr);
  };
  fnv_mix_indices2(h1, in1(0), h2, in2(0), cut1);
  fnv_mix_indices2(h1, in1(cut1), h2, in2(cut1), cut2 - cut1);
  fnv_mix_indices2(h1, in1(cut2), h2, in2(cut2), nc + nr - cut2);
}

void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  fnv_mix(h, &v, sizeof(v));
}

void fnv_mix_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  fnv_mix_u64(h, bits);
}

// Domain tags keep a trisolve key from ever equaling a Cholesky key over
// the same factor pattern (the caches are separate, but the keys should be
// self-describing regardless).
constexpr std::uint64_t kTagCholesky = 0x43484f4cULL;  // "CHOL"
constexpr std::uint64_t kTagTriSolve = 0x54524953ULL;  // "TRIS"

std::atomic<std::uint64_t> g_pattern_keys{0};

PatternKey structural_key(std::uint64_t tag, const CscMatrix& m,
                          std::span<const index_t> beta,
                          const SympilerOptions& opt) {
  g_pattern_keys.fetch_add(1, std::memory_order_relaxed);
  PatternKey key;
  key.rows = m.rows();
  key.cols = m.cols();
  key.nnz = m.nnz();
  key.rhs_nnz = static_cast<index_t>(beta.size());

  std::uint64_t h1 = kFnvOffset1;
  std::uint64_t h2 = kFnvOffset2;
  fnv_mix_u64(h1, tag);
  fnv_mix_u64(h2, ~tag);
  fnv_mix_crossed(h1, h2, m.colptr, m.rowind);
  fnv_mix_indices2(h1, beta.data(), h2, beta.data(), beta.size());
  key.structure_hash = h1;
  key.structure_hash2 = h2;
  key.config_hash = hash_options(opt);
  return key;
}

}  // namespace

std::uint64_t hash_options(const SympilerOptions& opt) {
  std::uint64_t h = kFnvOffset1;
  fnv_mix_u64(h, static_cast<std::uint64_t>(opt.vs_block));
  fnv_mix_u64(h, static_cast<std::uint64_t>(opt.vi_prune));
  fnv_mix_u64(h, static_cast<std::uint64_t>(opt.low_level));
  fnv_mix_double(h, opt.vsblock_min_avg_size);
  fnv_mix_double(h, opt.vsblock_min_avg_width);
  fnv_mix_u64(h, static_cast<std::uint64_t>(opt.peel_colcount));
  fnv_mix_u64(h, static_cast<std::uint64_t>(opt.max_supernode_width));
  // The robustness knobs (validate_input .. guard_workspace) and
  // verify_plan are deliberately NOT hashed: they change how a call fails
  // or whether a plan is checked, never what the plan contains, so a Debug
  // build (verify on) and a Release build (verify off) agree on every
  // cache key. plan_store_dir likewise: where a plan is persisted never
  // changes what the plan contains.
  return h;
}

std::uint64_t pattern_key_count() {
  return g_pattern_keys.load(std::memory_order_relaxed);
}

PatternKey cholesky_pattern_key(const CscMatrix& a_lower,
                                const SympilerOptions& opt) {
  return structural_key(kTagCholesky, a_lower, {}, opt);
}

PatternKey trisolve_pattern_key(const CscMatrix& l,
                                std::span<const index_t> beta,
                                const SympilerOptions& opt) {
  return structural_key(kTagTriSolve, l, beta, opt);
}

std::size_t PatternKeyHash::operator()(const PatternKey& k) const noexcept {
  // structure_hash already mixes every structural field except the shape;
  // fold the rest in so unordered_map buckets spread even under adversarial
  // equal-hash patterns.
  std::uint64_t h = k.structure_hash;
  h ^= k.structure_hash2 + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= k.config_hash + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.cols)) << 32) |
       static_cast<std::uint32_t>(k.nnz);
  return static_cast<std::size_t>(h);
}

std::string PatternKey::to_string() const {
  std::ostringstream os;
  os << "PatternKey{" << rows << "x" << cols << ", nnz=" << nnz;
  if (rhs_nnz > 0) os << ", rhs_nnz=" << rhs_nnz;
  os << ", 0x" << std::hex << structure_hash << "/0x" << structure_hash2
     << ", cfg=0x" << config_hash << "}";
  return os.str();
}

}  // namespace sympiler::core
