// kEmitted pass: audit the PlanCompiler's generated C before it reaches
// the host compiler.
//
// The emitted translation unit is a pure function of the plan, so the
// auditor re-emits it, parses every baked constant back out, and checks
// the result against the plan's own sets: baked arrays equal the
// inspection sets element for element, baked indices stay in-bounds
// against baked extents (the straight-line trisolve bakes thousands of
// literal x[]/Lx[] offsets), specialization/unroll constants agree with
// the plan's options, nothing in the source re-enables FP contraction
// (the bit-identity contract compiles at -ffp-contract=off), and the
// JitSlot's source-size accounting matches what was actually emitted.
//
// The audit runs only when every earlier pass was clean: emission indexes
// the plan's sets without defensive checks (it is entitled to — the
// verifier runs first), so handing it a corrupted plan would crash the
// verifier itself.
#include <cctype>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/plan_compiler.h"
#include "verify/internal.h"

namespace sympiler::verify::detail {

namespace {

/// Baked constants parsed back out of an emitted translation unit.
struct Baked {
  std::map<std::string, std::vector<long long>> arrays;
  std::map<std::string, long long> declared_len;
  std::map<std::string, long long> enums;
};

bool is_ident(char ch) {
  return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_';
}

/// Emission is O(source bytes), so auditing a plan whose baked sets blow
/// the JIT source cap would cost far more than the cold planning it
/// checks — and the capped source can never reach the host compiler
/// anyway. Gate the audit on a cheap size estimate (~8 chars per baked
/// integer), with 2x slack so anything plausibly under the cap is still
/// audited end to end. A cap of 0 (or below) means no cap: every source
/// then reaches the host compiler, so every one is audited.
bool audit_within_cap(std::size_t baked_ints, const core::SympilerOptions& o) {
  if (o.jit_max_source_kb <= 0) return true;
  const std::size_t cap = static_cast<std::size_t>(o.jit_max_source_kb) * 1024;
  return baked_ints * 8 <= 2 * cap;
}

/// Parse every `static const int/long long NAME[LEN] = {...};` array and
/// every `enum { NAME = VAL, ... };` constant. Returns false on a shape
/// the emitter never produces.
bool parse_baked(const std::string& src, Baked& out) {
  static constexpr const char* kPrefixes[] = {"static const int ",
                                              "static const long long "};
  for (const char* prefix : kPrefixes) {
    const std::size_t plen = std::string::traits_type::length(prefix);
    for (std::size_t pos = src.find(prefix); pos != std::string::npos;
         pos = src.find(prefix, pos + 1)) {
      std::size_t p = pos + plen;
      const std::size_t name_start = p;
      while (p < src.size() && is_ident(src[p])) ++p;
      if (p >= src.size() || src[p] != '[') return false;
      const std::string name = src.substr(name_start, p - name_start);
      char* end = nullptr;
      const long long len = std::strtoll(src.c_str() + p + 1, &end, 10);
      const std::size_t close = src.find(']', p);
      const std::size_t open = src.find('{', p);
      const std::size_t brace_end = src.find('}', p);
      if (close == std::string::npos || open == std::string::npos ||
          brace_end == std::string::npos || open < close)
        return false;
      std::vector<long long> values;
      for (std::size_t q = open + 1; q < brace_end;) {
        const char ch = src[q];
        if (ch == '-' || std::isdigit(static_cast<unsigned char>(ch)) != 0) {
          values.push_back(std::strtoll(src.c_str() + q, &end, 10));
          q = static_cast<std::size_t>(end - src.c_str());
          while (q < brace_end && src[q] == 'L') ++q;  // LL suffix
        } else {
          ++q;
        }
      }
      out.arrays[name] = std::move(values);
      out.declared_len[name] = len;
    }
  }
  for (std::size_t pos = src.find("enum {"); pos != std::string::npos;
       pos = src.find("enum {", pos + 1)) {
    const std::size_t brace_end = src.find('}', pos);
    if (brace_end == std::string::npos) return false;
    std::size_t q = pos + 6;
    while (q < brace_end) {
      while (q < brace_end && !is_ident(src[q])) ++q;
      if (q >= brace_end) break;
      const std::size_t name_start = q;
      while (q < brace_end && is_ident(src[q])) ++q;
      const std::string name = src.substr(name_start, q - name_start);
      while (q < brace_end && (src[q] == ' ' || src[q] == '=')) ++q;
      char* end = nullptr;
      out.enums[name] = std::strtoll(src.c_str() + q, &end, 10);
      q = static_cast<std::size_t>(end - src.c_str());
    }
  }
  return true;
}

template <typename T>
bool match_array(Checker& c, const Baked& b, const char* name,
                 std::span<const T> want) {
  const auto it = b.arrays.find(name);
  if (it == b.arrays.end())
    return c.fail("emitted.missing-array", -1,
                  cat("baked array ", name, " absent from the emitted code"));
  const auto lit = b.declared_len.find(name);
  const long long expect_len =
      want.empty() ? 1 : static_cast<long long>(want.size());
  if (lit == b.declared_len.end() || lit->second != expect_len)
    return c.fail("emitted.array-extent", -1,
                  cat("baked array ", name, " declared [",
                      lit == b.declared_len.end() ? -1 : lit->second,
                      "], plan implies [", expect_len, "]"));
  if (it->second.size() != want.size())
    return c.fail("emitted.array-content", -1,
                  cat("baked array ", name, " holds ", it->second.size(),
                      " values, plan has ", want.size()));
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (it->second[i] != static_cast<long long>(want[i]))
      return c.fail("emitted.array-content", static_cast<index_t>(i),
                    cat("baked ", name, "[", i, "] = ", it->second[i],
                        ", plan has ", static_cast<long long>(want[i])));
  }
  return true;
}

bool match_enum(Checker& c, const Baked& b, const char* name,
                long long want) {
  const auto it = b.enums.find(name);
  if (it == b.enums.end())
    return c.fail("emitted.missing-enum", -1,
                  cat("baked constant ", name, " absent"));
  if (it->second != want)
    return c.fail("emitted.enum-value", -1,
                  cat("baked ", name, " = ", it->second, ", plan implies ",
                      want));
  return true;
}

std::size_t count_occurrences(const std::string& src, const char* needle) {
  std::size_t count = 0;
  for (std::size_t pos = src.find(needle); pos != std::string::npos;
       pos = src.find(needle, pos + 1))
    ++count;
  return count;
}

/// No pragma and no flag string may re-enable FP contraction: the whole
/// bit-identity contract of compiled kernels rides on -ffp-contract=off
/// (the preamble's "-ffp-contract=off" comment is the one legal mention).
void check_fp_contract(Checker& c, const std::string& src) {
  c.note();
  static constexpr const char* kForbidden[] = {"#pragma", "ffast-math",
                                               "fp-contract=fast",
                                               "fp-contract=on"};
  for (const char* needle : kForbidden) {
    const std::size_t pos = src.find(needle);
    if (pos != std::string::npos) {
      c.fail("emitted.fp-contract", -1,
             cat("forbidden token \"", needle, "\" at source offset ", pos));
      return;
    }
  }
}

/// Every literal x[<int>] / Lx[<int>] subscript in the emitted source must
/// be in-bounds (straight-line trisolve bakes one literal per operation).
void check_literal_indices(Checker& c, const std::string& src, index_t n,
                           index_t nnz) {
  c.note();
  for (std::size_t pos = 0; pos + 2 < src.size(); ++pos) {
    if (src[pos] != 'x' || src[pos + 1] != '[') continue;
    const bool is_lx = pos >= 1 && src[pos - 1] == 'L' &&
                       (pos < 2 || !is_ident(src[pos - 2]));
    if (!is_lx && pos >= 1 && is_ident(src[pos - 1])) continue;
    const char first = src[pos + 2];
    if (std::isdigit(static_cast<unsigned char>(first)) == 0) continue;
    char* end = nullptr;
    const long long idx = std::strtoll(src.c_str() + pos + 2, &end, 10);
    if (*end != ']') continue;
    const long long bound = is_lx ? nnz : n;
    if (idx < 0 || idx >= bound) {
      c.fail("emitted.index-bounds", static_cast<index_t>(idx),
             cat("baked subscript ", (is_lx ? "Lx[" : "x["), idx,
                 "] out of bounds [0, ", bound, ") at source offset ", pos));
      return;
    }
  }
}

/// The JitSlot's accounting must match what emission actually produces:
/// a published kernel's source_bytes is the real translation-unit size,
/// and a source-cap rejection names that size honestly.
void check_cap_accounting(Checker& c, const core::JitSlot& slot,
                          const std::string& src) {
  c.note();
  if (const auto kernel = slot.kernel()) {
    if (kernel->source_bytes != src.size())
      c.fail("emitted.source-bytes", -1,
             cat("published kernel records ", kernel->source_bytes,
                 " source bytes, emission produces ", src.size()));
    return;
  }
  if (slot.failed()) {
    const std::string why = slot.failure();
    if (why.find("exceeds cap") != std::string::npos &&
        why.find(std::to_string(src.size())) == std::string::npos)
      c.fail("emitted.cap-accounting", -1,
             cat("cap rejection \"", why, "\" does not name the real ",
                 "source size ", src.size()));
  }
}

}  // namespace

// ---------------------------------------------------------------- Cholesky

void check_emitted(Report& report, const core::CholeskyPlan& plan) {
  if (!report.findings.empty()) return;  // audit only otherwise-clean plans
  Checker c(report, Pass::kEmitted);
  const CscMatrix& lp = plan.sets.sym.l_pattern;
  const index_t n = lp.cols();

  const bool simplicial = plan.path == core::ExecutionPath::Simplicial;
  c.note();
  if (simplicial &&
      static_cast<index_t>(plan.sets.rowpat_ptr.size()) != n + 1) {
    c.fail("emitted.missing-sets", -1,
           "simplicial emission needs the row patterns");
    return;
  }
  if (!simplicial && plan.sets.layout.n == 0) {
    c.fail("emitted.missing-sets", -1,
           "supernodal emission needs the panel layout");
    return;
  }

  const std::size_t baked_ints =
      simplicial ? lp.rowind.size() + plan.sets.rowpat.size() +
                       2 * (static_cast<std::size_t>(n) + 1) +
                       static_cast<std::size_t>(n)
                 : plan.sets.layout.srows.size() +
                       3 * plan.sets.updates.refs.size() +
                       2 * plan.sets.layout.srow_ptr.size() +
                       2 * plan.sets.layout.panel_ptr.size() +
                       plan.sets.updates.ptr.size() + plan.agg.items.size();
  if (!audit_within_cap(baked_ints, plan.options)) return;

  const std::string src = core::PlanCompiler::emit(plan);
  Baked baked;
  c.note();
  if (!parse_baked(src, baked)) {
    c.fail("emitted.unparsable", -1,
           "emitted source has a baked-constant shape the emitter never "
           "produces");
    return;
  }

  c.note();
  if (simplicial) {
    if (match_array<index_t>(c, baked, "Lp", lp.colptr) &&
        match_array<index_t>(c, baked, "Li", lp.rowind) &&
        match_array<index_t>(c, baked, "rowPatPtr", plan.sets.rowpat_ptr) &&
        match_array<index_t>(c, baked, "rowPat", plan.sets.rowpat) &&
        match_enum(c, baked, "N", n)) {
      // updStart[q] is the replayed column cursor: inside column k's
      // off-diagonal run, pointing at exactly the owning row's entry.
      c.note();
      const auto& upd = baked.arrays["updStart"];
      if (upd.size() != plan.sets.rowpat.size()) {
        c.fail("emitted.array-content", -1,
               cat("updStart holds ", upd.size(), " cursors, row patterns ",
                   "have ", plan.sets.rowpat.size(), " updates"));
      } else {
        for (index_t i = 0; i < n; ++i) {
          bool bad = false;
          for (index_t q = plan.sets.rowpat_ptr[i];
               q < plan.sets.rowpat_ptr[i + 1]; ++q) {
            const index_t k = plan.sets.rowpat[q];
            const long long pj = upd[static_cast<std::size_t>(q)];
            if (pj <= lp.colptr[k] || pj >= lp.colptr[k + 1] ||
                lp.rowind[static_cast<std::size_t>(pj)] != i) {
              c.fail("emitted.index-bounds", i,
                     cat("updStart[", q, "] = ", pj, " does not point at ",
                         "row ", i, " inside column ", k,
                         "'s off-diagonal run"));
              bad = true;
              break;
            }
          }
          if (bad) break;
        }
      }
    }
  } else {
    const solvers::SupernodalLayout& layout = plan.sets.layout;
    std::vector<index_t> upd_d, upd_p1, upd_p2;
    upd_d.reserve(plan.sets.updates.refs.size());
    for (const solvers::UpdateRef& ref : plan.sets.updates.refs) {
      upd_d.push_back(ref.d);
      upd_p1.push_back(ref.p1);
      upd_p2.push_back(ref.p2);
    }
    const bool specialized =
        plan.options.low_level &&
        plan.sets.avg_colcount < plan.options.blas_switch_colcount;
    if (match_array<index_t>(c, baked, "snStart", layout.sn.start) &&
        match_array<index_t>(c, baked, "srowPtr", layout.srow_ptr) &&
        match_array<index_t>(c, baked, "srows", layout.srows) &&
        match_array<std::int64_t>(c, baked, "panelPtr", layout.panel_ptr) &&
        match_array<index_t>(c, baked, "updPtr", plan.sets.updates.ptr) &&
        match_array<index_t>(c, baked, "updD", upd_d) &&
        match_array<index_t>(c, baked, "updP1", upd_p1) &&
        match_array<index_t>(c, baked, "updP2", upd_p2) &&
        match_enum(c, baked, "N", layout.n) &&
        match_enum(c, baked, "NSUPER", layout.nsuper()) &&
        match_enum(c, baked, "SPECIALIZED", specialized ? 1 : 0) &&
        !plan.agg.empty()) {
      // A scheduled plan's sequential interpretation bakes the aggregate
      // schedule: the item order verbatim, one phase comment per barrier.
      c.note();
      if (match_array<index_t>(c, baked, "snOrder", plan.agg.items) &&
          static_cast<index_t>(count_occurrences(src, "/* phase ")) !=
              plan.agg.levels())
        c.fail("emitted.phase-count", -1,
               cat("emitted ", count_occurrences(src, "/* phase "),
                   " phase markers, schedule has ", plan.agg.levels(),
                   " levels"));
    }
  }

  check_fp_contract(c, src);
  check_cap_accounting(c, *plan.jit, src);
}

// ---------------------------------------------------------------- TriSolve

void check_emitted(Report& report, const core::TriSolvePlan& plan,
                   const CscMatrix& l) {
  if (!report.findings.empty()) return;  // audit only otherwise-clean plans
  Checker c(report, Pass::kEmitted);
  const index_t n = l.cols();
  const auto& sets = plan.sets;

  const bool blocked = plan.path == core::ExecutionPath::BlockedTriSolve;
  c.note();
  if (blocked && (sets.blocks.start.empty() ||
                  static_cast<index_t>(sets.colcount.size()) != n)) {
    c.fail("emitted.missing-sets", -1,
           "blocked emission needs the block-set and column counts");
    return;
  }

  const std::size_t baked_ints =
      blocked ? 4 * (plan.options.vi_prune
                         ? sets.sn_reach.size()
                         : static_cast<std::size_t>(sets.blocks.count()))
              : 3 * sets.reach.size();
  if (!audit_within_cap(baked_ints, plan.options)) return;

  const std::string src = core::PlanCompiler::emit(plan, l);
  Baked baked;
  c.note();
  if (!parse_baked(src, baked)) {
    c.fail("emitted.unparsable", -1,
           "emitted source has a baked-constant shape the emitter never "
           "produces");
    return;
  }

  c.note();
  if (blocked) {
    std::vector<index_t> blk_c1, blk_c2, blk_cr, blk_tail;
    const index_t nblocks =
        plan.options.vi_prune ? static_cast<index_t>(sets.sn_reach.size())
                              : sets.blocks.count();
    for (index_t k = 0; k < nblocks; ++k) {
      const index_t s = plan.options.vi_prune ? sets.sn_reach[k] : k;
      if (s < 0 || s + 1 >= static_cast<index_t>(sets.blocks.start.size())) {
        c.fail("emitted.missing-sets", s,
               "supernode prune-set references a block outside the "
               "partition");
        return;
      }
      blk_c1.push_back(sets.blocks.start[s]);
      blk_c2.push_back(sets.blocks.start[s + 1]);
      blk_cr.push_back(plan.options.vi_prune ? sets.sn_first_col[k]
                                             : blk_c1.back());
      blk_tail.push_back(sets.colcount[blk_c1.back()] -
                         (blk_c2.back() - blk_c1.back()));
    }
    if (match_array<index_t>(c, baked, "blkC1", blk_c1) &&
        match_array<index_t>(c, baked, "blkC2", blk_c2) &&
        match_array<index_t>(c, baked, "blkCr", blk_cr) &&
        match_array<index_t>(c, baked, "blkTail", blk_tail)) {
      match_enum(c, baked, "NBLOCKS", nblocks);
      match_enum(c, baked, "LOW_LEVEL", plan.options.low_level ? 1 : 0);
    }
  } else if (!plan.options.vi_prune) {
    // Naive form: no baked pattern at all, the runtime zero-skip loop over
    // every column.
    match_enum(c, baked, "N", n);
  } else {
    std::int64_t total_ops = 0;
    for (const index_t j : sets.reach)
      if (j >= 0 && j < n) total_ops += l.col_end(j) - l.col_begin(j);
    if (total_ops <= 1024 /* kStraightLineOps, plan_compiler.cpp */) {
      // Straight-line form: every operation fully unrolled — exactly one
      // pivot division per reach column, every subscript a literal.
      if (src.find("(void)Li;") == std::string::npos)
        c.fail("emitted.unroll-shape", -1,
               "straight-line form missing its no-index-loads marker");
      else if (static_cast<index_t>(count_occurrences(
                   src, "const double xj = x[")) !=
               static_cast<index_t>(sets.reach.size()))
        c.fail("emitted.unroll-count", -1,
               cat("emitted ", count_occurrences(src, "const double xj = x["),
                   " unrolled columns, reach has ", sets.reach.size()));
    } else {
      std::vector<index_t> col_begin, col_end;
      col_begin.reserve(sets.reach.size());
      for (const index_t j : sets.reach) {
        if (j < 0 || j >= n) {
          c.fail("emitted.missing-sets", j, "reach column out of range");
          return;
        }
        col_begin.push_back(l.col_begin(j));
        col_end.push_back(l.col_end(j));
      }
      if (match_array<index_t>(c, baked, "pruneSet", sets.reach) &&
          match_array<index_t>(c, baked, "colBegin", col_begin))
        match_array<index_t>(c, baked, "colEnd", col_end);
    }
  }

  check_literal_indices(c, src, n, l.nnz());
  check_fp_contract(c, src);
  check_cap_accounting(c, *plan.jit, src);
}

}  // namespace sympiler::verify::detail
