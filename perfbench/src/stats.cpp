#include "stats.h"

#include <algorithm>
#include <cstdint>

#include "bench.h"

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double tick_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  // Interval [lo, hi) of the samples equal to the value the target hits.
  const auto idx = std::min(static_cast<std::size_t>(target), v.size() - 1);
  const double value = v[idx];
  const auto lo = static_cast<double>(std::lower_bound(v.begin(), v.end(), value) - v.begin());
  const auto hi = static_cast<double>(std::upper_bound(v.begin(), v.end(), value) - v.begin());
  return value - 0.5 + (target - lo) / (hi - lo);
}

Tail tail_of(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const auto n = static_cast<double>(v.size());
  for (const double p : kLadder) {
    if (n * (1.0 - p / 100.0) >= 10.0) return Tail{p, tick_quantile(v, p / 100.0)};
  }
  return Tail{};
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1;
}

}  // namespace pb
