// Replay tests for the CSC validation fuzz harness (tests/fuzz/): the
// committed seed corpus, then a fixed-seed mutation loop of bounded
// length, each input through LLVMFuzzerTestOneInput's check. Under the
// sanitizer build the hostile inputs run under ASan and UBSan too. Also
// the directed form of the same contract: the one-pass validators match
// the ordered oracle on every corruption class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "fuzz/csc_validation_fuzz.h"
#include "gen/generators.h"
#include "support/validation_oracle.h"

namespace sympiler {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::vector<std::pair<std::string, Bytes>> seed_corpus() {
  std::vector<std::pair<std::string, Bytes>> corpus;
  for (const auto& entry :
       std::filesystem::directory_iterator(SYMPILER_FUZZ_CORPUS_DIR)) {
    std::ifstream in(entry.path(), std::ios::binary);
    corpus.emplace_back(entry.path().filename().string(),
                        Bytes(std::istreambuf_iterator<char>(in), {}));
  }
  std::sort(corpus.begin(), corpus.end());
  return corpus;
}

std::string hex(const Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t b : bytes) {
    s += digits[b >> 4];
    s += digits[b & 15];
  }
  return s;
}

TEST(CscValidationFuzz, SeedCorpusReplaysCleanAndReachesBothVerdicts) {
  const auto corpus = seed_corpus();
  ASSERT_GE(corpus.size(), 20u);
  int accepted = 0;
  int rejected = 0;
  for (const auto& [name, bytes] : corpus) {
    const fuzz::CheckResult r =
        fuzz::check_csc_validation(bytes.data(), bytes.size());
    EXPECT_EQ(r.finding, "") << name;
    (r.accepted == 2 ? accepted : rejected) += 1;
  }
  EXPECT_GE(accepted, 5);
  EXPECT_GE(rejected, 15);
}

/// One random edit in the style of libFuzzer's byte mutators.
void mutate(Bytes& bytes, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  switch (pick(6)) {
    case 0:  // flip one bit
      if (!bytes.empty()) bytes[pick(bytes.size())] ^= 1u << pick(8);
      break;
    case 1:  // overwrite one byte
      if (!bytes.empty())
        bytes[pick(bytes.size())] = static_cast<std::uint8_t>(rng());
      break;
    case 2:  // insert one byte
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                       pick(bytes.size() + 1)),
                   static_cast<std::uint8_t>(rng()));
      break;
    case 3:  // erase one byte
      if (!bytes.empty())
        bytes.erase(bytes.begin() +
                    static_cast<std::ptrdiff_t>(pick(bytes.size())));
      break;
    case 4:  // truncate
      bytes.resize(pick(bytes.size() + 1));
      break;
    default: {  // append a 4-byte patch record
      for (int k = 0; k < 4; ++k)
        bytes.push_back(static_cast<std::uint8_t>(rng()));
      break;
    }
  }
}

TEST(CscValidationFuzz, FixedSeedMutationLoopAgreesWithTheOracle) {
  const auto corpus = seed_corpus();
  ASSERT_FALSE(corpus.empty());
  std::mt19937_64 rng(20261020);
  int accepted = 0;
  for (int it = 0; it < 20000; ++it) {
    Bytes bytes = corpus[rng() % corpus.size()].second;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) mutate(bytes, rng);
    const fuzz::CheckResult r =
        fuzz::check_csc_validation(bytes.data(), bytes.size());
    ASSERT_EQ(r.finding, "") << "iteration " << it << ", input "
                             << hex(bytes);
    accepted += r.accepted;
  }
  // The loop must reach accepted inputs, so planning runs on mutants too.
  EXPECT_GT(accepted, 0);
}

// ------------------------------------------- directed corruption classes

/// `m` rebuilt with `rows` rows, the entries `keep` accepts and `extra`:
/// the constructor is the only way to change a CscMatrix's shape.
CscMatrix rebuilt(const CscMatrix& m, index_t rows,
                  const std::function<bool(index_t, index_t)>& keep,
                  const std::vector<Triplet>& extra = {}) {
  std::vector<Triplet> trip = extra;
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t p = m.col_begin(j); p < m.col_end(j); ++p)
      if (keep(m.rowind[p], j)) trip.push_back({m.rowind[p], j, m.values[p]});
  return CscMatrix::from_triplets(rows, m.cols(), trip);
}

/// Both facade validators against the oracle on one input; returns the
/// trisolve oracle's message ("" = accepted).
std::string expect_matches_oracle(const std::string& name, const CscMatrix& m,
                                  std::span<const index_t> beta,
                                  bool scan_values) {
  std::string got_factor;
  std::string got_trisolve;
  try {
    api::validate_factor_input(m, scan_values);
  } catch (const invalid_matrix_error& e) {
    got_factor = e.what();
  }
  try {
    api::validate_trisolve_input(m, beta, scan_values);
  } catch (const invalid_matrix_error& e) {
    got_trisolve = e.what();
  }
  EXPECT_EQ(got_factor, support::ordered_factor_input_error(m, scan_values))
      << name;
  const std::string want =
      support::ordered_trisolve_input_error(m, beta, scan_values);
  EXPECT_EQ(got_trisolve, want) << name;
  return want;
}

const std::vector<index_t> kBeta = {0, 6};

TEST(CscValidation, OnePassValidatorsMatchTheOrderedOracleOnWholeMatrixClasses) {
  const CscMatrix base = gen::grid2d_laplacian(4, 4);
  const index_t n = base.cols();
  struct Case {
    const char* name;
    std::function<void(CscMatrix&, std::vector<index_t>&)> corrupt;
    bool scan_values = false;
  };
  const Case cases[] = {
      {"colptr size", [](CscMatrix& m, auto&) { m.colptr.push_back(0); }},
      {"colptr[0]", [](CscMatrix& m, auto&) { m.colptr[0] = 1; }},
      {"colptr descends",
       [](CscMatrix& m, auto&) { m.colptr[3] = m.colptr[2] - 1; }},
      {"colptr past rowind", [](CscMatrix& m, auto&) { m.colptr.back() += 1; }},
      {"values size", [](CscMatrix& m, auto&) { m.values.pop_back(); }},
      {"not square",
       [&](CscMatrix& m, auto&) {
         m = rebuilt(m, n + 1, [](index_t, index_t) { return true; });
       }},
      {"non-finite value",
       [](CscMatrix& m, auto&) { m.values[4] = std::nan(""); }, true},
      {"negative rhs index",
       [](CscMatrix&, std::vector<index_t>& beta) { beta.push_back(-1); }},
      {"rhs index past n",
       [&](CscMatrix&, std::vector<index_t>& beta) { beta.push_back(n); }},
  };
  std::set<std::string> messages;
  for (const Case& c : cases) {
    CscMatrix m = base;
    std::vector<index_t> beta = kBeta;
    c.corrupt(m, beta);
    const std::string want =
        expect_matches_oracle(c.name, m, beta, c.scan_values);
    EXPECT_NE(want, "") << c.name;
    messages.insert(want);
  }
  // Each class reaches its own first violation, except the two that
  // break the rowind/values size check (colptr past rowind, values size).
  EXPECT_EQ(messages.size(), std::size(cases) - 1);
  EXPECT_EQ(expect_matches_oracle("valid", base, kBeta, true), "");
}

// The one-pass scan treats the first entry, the column boundaries and
// each column's first row specially, so every column-local class is
// planted in every column in turn.
TEST(CscValidation, OnePassValidatorsMatchTheOrderedOracleInEveryColumn) {
  const CscMatrix base = gen::grid2d_laplacian(4, 4);
  const index_t n = base.cols();
  std::set<std::string> classes;
  for (index_t j = 0; j < n; ++j) {
    const std::string at = " at column " + std::to_string(j);
    const index_t b = base.col_begin(j);
    const index_t e = base.col_end(j);
    std::vector<std::pair<std::string, CscMatrix>> cases;
    cases.emplace_back("empty column", rebuilt(base, n, [j](index_t, index_t c) {
                         return c != j;
                       }));
    cases.emplace_back("missing diagonal",
                       rebuilt(base, n, [j](index_t i, index_t c) {
                         return i != j || c != j;
                       }));
    if (j > 0)
      cases.emplace_back(
          "above diagonal",
          rebuilt(base, n, [](index_t, index_t) { return true; },
                  {{j - 1, j, -1.0}}));
    CscMatrix m = base;
    m.rowind[b] = -1;
    cases.emplace_back("negative first row", m);
    m = base;
    m.rowind[e - 1] = n;
    cases.emplace_back("last row past n", m);
    if (e - b >= 2) {
      m = base;
      m.rowind[b + 1] = m.rowind[b];
      cases.emplace_back("duplicate row", m);
      m = base;
      m.rowind[e - 1] = m.rowind[e - 2] - 1;
      cases.emplace_back("descending last row", m);
    }
    for (const auto& [name, corrupted] : cases) {
      EXPECT_NE(expect_matches_oracle(name + at, corrupted, kBeta, false), "")
          << name << at;
      classes.insert(name);
    }
  }
  EXPECT_EQ(classes.size(), 7u);
}

}  // namespace
}  // namespace sympiler
