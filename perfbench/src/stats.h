// Sample statistics for the benchmark: nearest-rank percentiles that carry
// their sample count, and refuse a tail percentile the run cannot support.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// One percentile of a sample, with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< size of the sample it was taken from
  std::size_t beyond = 0;   ///< samples ranked strictly above it
};

/// Nearest-rank percentile q in (0, 1]: the value at rank ceil(q * n).
/// Throws std::invalid_argument on an empty sample, a q outside (0, 1],
/// or when fewer than `min_beyond` samples rank above the result — a p90
/// resting on a handful of tail samples moves with every stall.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q,
                                    std::size_t min_beyond = 0);

/// Median (q = 0.5) of a non-empty sample.
[[nodiscard]] double median_of(std::vector<double> samples);

/// Mean of a non-empty sample after dropping its floor(trim * n) smallest
/// and as many largest values; trim must be in [0, 0.5).
[[nodiscard]] double trimmed_mean(std::vector<double> samples, double trim);

/// Samples needed so that a q-percentile has `min_beyond` samples above it.
[[nodiscard]] std::size_t samples_needed(double q, std::size_t min_beyond);

}  // namespace perfbench
