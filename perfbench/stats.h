#pragma once

// Sample statistics for the benchmark's reported timings.
//
// A timing is reported as its median plus one tail percentile, and a tail
// percentile is only reported when at least kMinTailSamples samples lie
// beyond it: p90 of 40 samples rests on four values and moves with every
// scheduler hiccup, so it is refused rather than printed.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

/// Linearly interpolated percentile, p in [0, 100]. Requires a non-empty
/// sample; takes it by value so callers keep their samples in run order.
double percentile(std::vector<double> xs, double p);

double median(std::vector<double> xs);

/// Samples strictly beyond the p-th percentile's interpolated rank in a
/// sample of n.
std::size_t samples_beyond(std::size_t n, unsigned p);

/// The p-th percentile, or nullopt when fewer than kMinTailSamples samples
/// lie beyond it (p90 needs at least 92 samples).
std::optional<double> tail_percentile(const std::vector<double>& xs, unsigned p);

/// Median of the last tenth of a run over the median of its first tenth:
/// 1.0 is a stationary run, above 1.0 a run that slowed down as it went.
/// nullopt with fewer than 10 samples.
std::optional<double> drift(const std::vector<double>& xs);

double sum(const std::vector<double>& xs);

/// Smallest sample; requires a non-empty sample.
double lowest(const std::vector<double>& xs);

}  // namespace perfbench
