#pragma once
// Order statistics for the benchmark's reported timings.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

/// Cut points that divide `v` into `n` groups, computed exactly as
/// Python's statistics.quantiles(v, n=n) (the default "exclusive"
/// method), so the benchmark and the steadiness check agree on quartiles.
inline std::vector<double> quantiles(std::vector<double> v, int n) {
  if (n < 1 || v.size() < 2) {
    throw std::invalid_argument("quantiles need n >= 1 and two samples");
  }
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long long>(v.size());
  const long long m = ld + 1;
  std::vector<double> cuts;
  for (long long i = 1; i < n; ++i) {
    long long j = i * m / n;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * n;
    cuts.push_back((v[static_cast<std::size_t>(j - 1)] *
                        static_cast<double>(n - delta) +
                    v[static_cast<std::size_t>(j)] *
                        static_cast<double>(delta)) /
                   static_cast<double>(n));
  }
  return cuts;
}

/// A tail percentile that is backed by data: the nearest-rank value plus
/// how many samples lie strictly beyond it.
struct TailPercentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Samples the tail must have beyond the reported percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank `q`-quantile (0 < q < 1) of `v`, or nullopt when fewer
/// than `min_beyond` samples lie beyond it -- such a percentile would be a
/// guess about one or two outliers, so it is reported as missing.
inline std::optional<TailPercentile> tail_percentile(
    std::vector<double> v, double q,
    std::size_t min_beyond = kMinSamplesBeyond) {
  if (v.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  const std::size_t beyond = v.size() - 1 - idx;
  if (beyond < min_beyond) return std::nullopt;
  return TailPercentile{v[idx], v.size(), beyond};
}

}  // namespace perfbench
