// Shared helpers of the end-to-end benchmark: the clock, order statistics,
// resident-set readings, digests and the metric list printed as JSON.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted in place).
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// FNV-1a over raw bytes, chained through `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

template <typename T>
std::uint64_t fnv1a_value(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof(v));
}

/// Current and peak resident set of this process in bytes, from
/// /proc/self/status (0 where unavailable).
struct Rss {
  std::uint64_t current = 0;
  std::uint64_t peak = 0;
};
Rss read_rss();

/// Restarts the kernel's peak-RSS counter at the current RSS. Returns false
/// when the kernel refuses, in which case the lifetime peak is reported.
bool reset_peak_rss();

/// A fixed compute loop (dependent floating-point chain, no memory
/// traffic): its time tells a slow host from a slow program.
double host_probe_ms();

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Appends `s` to `out` as a JSON string literal.
void json_string(std::string& out, const std::string& s);

/// JSON number with every significant digit (non-finite values print 0).
std::string json_number(double v);

}  // namespace perfbench
