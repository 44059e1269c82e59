// Order statistics over benchmark samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <vector>

namespace lacc_bench {

/// The q-quantile (q in [0, 1]) of `samples`, interpolating linearly between
/// the two closest ranks; 0 when there are no samples.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Median over consecutive `window_s`-long windows of each window's p99.
/// Sample i belongs to window floor(at_s[i] / window_s).  A p99 needs at
/// least 100 samples, so sparser windows (the partial last one, or every
/// window of a slow workload) are skipped; with no full window this is the
/// plain p99 of all samples.  One stall then moves a single window's p99
/// instead of the whole run's, which keeps the tail comparable run to run.
inline double windowed_p99(const std::vector<double>& at_s,
                           const std::vector<double>& values,
                           double window_s) {
  std::map<long long, std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size() && i < at_s.size(); ++i)
    windows[static_cast<long long>(std::floor(at_s[i] / window_s))].push_back(
        values[i]);
  std::vector<double> p99s;
  for (auto& [window, samples] : windows)
    if (samples.size() >= 100)
      p99s.push_back(percentile(std::move(samples), 0.99));
  return p99s.empty() ? percentile(values, 0.99) : median(std::move(p99s));
}

}  // namespace lacc_bench
