// Result assembly: named metrics with units, and a small ordered JSON
// writer for the result line and the detail record.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Ordered JSON object writer. Numbers are printed with every digit
/// (%.17g); non-finite numbers become null.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, std::int64_t v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& obj(const std::string& key, const JsonObject& v);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

[[nodiscard]] std::string json_escape(const std::string& s);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics of one run plus its outcome counts (the result line).
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  JsonObject detail;  ///< fingerprint, sample counts, coverage, checks

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  [[nodiscard]] std::string result_line() const;
};

}  // namespace perfbench
