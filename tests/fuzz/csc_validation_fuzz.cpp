#include "fuzz/csc_validation_fuzz.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <span>
#include <vector>

#include "api/solver.h"
#include "core/planner.h"
#include "support/validation_oracle.h"

namespace sympiler::fuzz {

namespace {

/// The input's bytes in order; past the end every byte reads as 0.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  std::uint8_t next() { return pos_ < size_ ? data_[pos_++] : 0; }
  [[nodiscard]] bool done() const { return pos_ >= size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

struct Input {
  CscMatrix m;
  std::vector<index_t> beta;
  bool scan_values = false;
};

Input decode(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size);
  const index_t n = in.next() % 48;
  const std::uint8_t flags = in.next();
  Input out;
  out.scan_values = (flags & 2) != 0;
  std::vector<index_t> colptr = {0};
  std::vector<index_t> rowind;
  for (index_t j = 0; j < n; ++j) {
    const int count = in.next() % 8;
    index_t row = j;
    for (int k = 0; k < count; ++k) {
      row += static_cast<std::int8_t>(in.next());
      rowind.push_back(row);
    }
    colptr.push_back(static_cast<index_t>(rowind.size()));
  }
  if ((flags & 4) != 0) colptr.push_back(colptr.back());
  std::vector<value_t> values(rowind.size(), 1.0);
  if ((flags & 8) != 0 && !values.empty()) values.pop_back();
  if ((flags & 16) != 0 && !values.empty())
    values[0] = std::numeric_limits<value_t>::quiet_NaN();
  const int nbeta = in.next() % (n + 3);
  for (int k = 0; k < nbeta; ++k)
    out.beta.push_back(in.next() % (n + 4) - 2);
  while (!in.done()) {
    const std::uint8_t what = in.next();
    const std::uint8_t pos = in.next();
    const std::uint8_t lo = in.next();
    const std::uint8_t hi = in.next();
    const auto value = static_cast<index_t>(
        static_cast<std::int16_t>(static_cast<std::uint16_t>(hi << 8 | lo)) *
        (what >= 128 ? 65536 : 1));
    std::vector<index_t>& target =
        what % 3 == 0 ? colptr : (what % 3 == 1 ? rowind : out.beta);
    if (!target.empty()) target[pos % target.size()] = value;
  }
  out.m = CscMatrix(n + (flags & 1), n);
  out.m.colptr = std::move(colptr);
  out.m.rowind = std::move(rowind);
  out.m.values = std::move(values);
  return out;
}

template <typename F>
std::string error_of(const F& call) {
  try {
    call();
  } catch (const invalid_matrix_error& e) {
    return e.what();
  }
  return {};
}

std::string mismatch(const char* who, const std::string& got,
                     const std::string& want) {
  return std::string(who) + " says \"" + got + "\", the oracle \"" + want +
         "\"";
}

}  // namespace

CheckResult check_csc_validation(const std::uint8_t* data, std::size_t size) {
  const Input in = decode(data, size);
  const CscMatrix& m = in.m;
  const std::span<const index_t> beta = in.beta;
  CheckResult result;

  // valid() is the fast verdict; validate() reruns the ordered checks on
  // a flagged matrix and is the source of the message.
  const std::string csc = error_of([&] { m.validate(); });
  if (m.valid() != csc.empty()) {
    result.finding =
        "CscMatrix::valid() disagrees with validate(): \"" + csc + "\"";
    return result;
  }

  const std::string want_factor =
      support::ordered_factor_input_error(m, in.scan_values);
  const std::string got_factor =
      error_of([&] { api::validate_factor_input(m, in.scan_values); });
  if (got_factor != want_factor) {
    result.finding = mismatch("validate_factor_input", got_factor, want_factor);
    return result;
  }
  const std::string want_trisolve =
      support::ordered_trisolve_input_error(m, beta, in.scan_values);
  const std::string got_trisolve =
      error_of([&] { api::validate_trisolve_input(m, beta, in.scan_values); });
  if (got_trisolve != want_trisolve) {
    result.finding =
        mismatch("validate_trisolve_input", got_trisolve, want_trisolve);
    return result;
  }
  result.accepted = int{want_factor.empty()} + int{want_trisolve.empty()};

  // An accepted input is what the facades go on to key and plan.
  core::PlannerConfig config;
  config.options.verify_plan = true;
  const core::Planner planner(config);
  try {
    if (want_factor.empty() &&
        !(planner.plan_cholesky(m).key == planner.cholesky_key(m)))
      result.finding = "plan_cholesky stamped a key other than cholesky_key";
    else if (want_trisolve.empty() && !(planner.plan_trisolve(m, beta).key ==
                                        planner.trisolve_key(m, beta)))
      result.finding = "plan_trisolve stamped a key other than trisolve_key";
  } catch (const std::exception& e) {
    result.finding =
        std::string("planning an accepted input threw: ") + e.what();
  }
  return result;
}

}  // namespace sympiler::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string finding =
      sympiler::fuzz::check_csc_validation(data, size).finding;
  if (!finding.empty()) {
    std::fprintf(stderr, "csc validation fuzz: %s\n", finding.c_str());
    std::abort();
  }
  return 0;
}
