#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

/// Percentile `p` (0..100) of `values` by linear interpolation between the
/// two nearest ranks — the "inclusive" method of Python's
/// statistics.quantiles and numpy's default. Throws on an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean: empty sample");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Samples strictly above the `p`-th percentile. A tail percentile is only
/// as good as the number of samples beyond it; runs report this count.
inline std::size_t samples_beyond(const std::vector<double>& values, double p) {
  const double cut = percentile(values, p);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

/// FNV-1a over the exact bytes of what is added: doubles by bit pattern,
/// so two outputs digest alike only if they are bit-identical.
class Digest {
 public:
  void add(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    byte(0);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace perfbench
