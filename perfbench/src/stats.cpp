#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q,
                      std::size_t min_beyond) {
  if (samples.empty())
    throw std::invalid_argument("percentile of an empty sample");
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile rank must be in (0, 1]");
  const std::size_t n = samples.size();
  // Nearest rank: the smallest value with at least q * n samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < min_beyond)
    throw std::invalid_argument(
        "p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
        " of " + std::to_string(n) + " samples has " + std::to_string(beyond) +
        " beyond it; " + std::to_string(min_beyond) + " are required");
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return {samples[rank - 1], n, beyond};
}

double median_of(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

double trimmed_mean(std::vector<double> samples, double trim) {
  if (samples.empty())
    throw std::invalid_argument("trimmed mean of an empty sample");
  if (!(trim >= 0.0 && trim < 0.5))
    throw std::invalid_argument("trim must be in [0, 0.5)");
  std::sort(samples.begin(), samples.end());
  const auto cut = static_cast<std::size_t>(trim * static_cast<double>(samples.size()));
  double sum = 0.0;
  for (std::size_t i = cut; i < samples.size() - cut; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * cut);
}

std::size_t samples_needed(double q, std::size_t min_beyond) {
  // Smallest n with n - ceil(q n) >= min_beyond.
  std::size_t n = min_beyond + 1;
  while (n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) <
         min_beyond)
    ++n;
  return n;
}

}  // namespace perfbench
