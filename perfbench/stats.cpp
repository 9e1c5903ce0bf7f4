#include "stats.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

std::size_t samples_beyond(std::size_t n, unsigned p) {
  if (n == 0) return 0;
  // Integer form of n - 1 - floor(p/100 * (n - 1)).
  return n - 1 - (static_cast<std::size_t>(p) * (n - 1)) / 100;
}

std::optional<double> tail_percentile(const std::vector<double>& xs, unsigned p) {
  if (samples_beyond(xs.size(), p) < kMinTailSamples) return std::nullopt;
  return percentile(xs, p);
}

std::optional<double> drift(const std::vector<double>& xs) {
  const std::size_t tenth = xs.size() / 10;
  if (tenth == 0) return std::nullopt;
  const double first = median({xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(tenth)});
  const double last = median({xs.end() - static_cast<std::ptrdiff_t>(tenth), xs.end()});
  if (first <= 0) return std::nullopt;
  return last / first;
}

double sum(const std::vector<double>& xs) { return std::accumulate(xs.begin(), xs.end(), 0.0); }

double lowest(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("lowest of an empty sample");
  return *std::min_element(xs.begin(), xs.end());
}

}  // namespace perfbench
