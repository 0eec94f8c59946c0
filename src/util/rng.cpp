#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace dps {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& lane : s_) lane = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % n;
}

void box_muller(double u1, double u2, double& cos_deviate,
                double& sin_deviate) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cos_deviate = r * std::cos(theta);
  sin_deviate = r * std::sin(theta);
}

void Rng::draw_pair(double& u1, double& u2) {
  u1 = 0.0;
  while (u1 == 0.0) u1 = uniform();
  u2 = uniform();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1, u2, deviate;
  draw_pair(u1, u2);
  box_muller(u1, u2, deviate, cached_normal_);
  has_cached_normal_ = true;
  return deviate;
}

void Rng::draw_normals(std::size_t count, NormalDraws& out) {
  out.count_ = count;
  out.skip_ = 0;
  out.last_ = NormalDraws::Memo{};
  std::size_t fresh = count;
  if (count > 0 && has_cached_normal_) {
    out.pending_ = cached_normal_;
    out.skip_ = 1;
    has_cached_normal_ = false;
    --fresh;
  }
  const std::size_t pairs = (fresh + 1) / 2;
  out.uniforms_.resize(2 * pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    draw_pair(out.uniforms_[2 * p], out.uniforms_[2 * p + 1]);
  }
  if (pairs > 0) {
    // The last pair's sine stays in the cache, as after the normal() call
    // that drew the pair: pending when the run ends on the pair's cosine,
    // spent (but still saved by save()) when it ends on the sine. The run
    // keeps the pair's transform, so it is computed once.
    out.last_.pair = pairs - 1;
    box_muller(out.uniforms_[2 * pairs - 2], out.uniforms_[2 * pairs - 1],
               out.last_.cos, out.last_.sin);
    cached_normal_ = out.last_.sin;
    has_cached_normal_ = fresh % 2 == 1;
  }
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

Rng Rng::split() { return Rng(next_u64()); }

void Rng::save(ByteWriter& out) const {
  for (const std::uint64_t lane : s_) out.u64(lane);
  out.f64(cached_normal_);
  out.boolean(has_cached_normal_);
}

void Rng::load(ByteReader& in) {
  for (auto& lane : s_) lane = in.u64();
  cached_normal_ = in.f64();
  has_cached_normal_ = in.boolean();
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a;
  std::uint64_t out = splitmix64(x);
  x ^= b + 0x9e3779b97f4a7c15ULL;
  out ^= splitmix64(x);
  x ^= c + 0xbf58476d1ce4e5b9ULL;
  out ^= splitmix64(x);
  return out;
}

void shuffle_indices(Rng& rng, std::uint32_t* idx, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) idx[i] = i;
  for (std::uint32_t i = n; i > 1; --i) {
    const auto j = static_cast<std::uint32_t>(rng.uniform_int(i));
    const std::uint32_t tmp = idx[i - 1];
    idx[i - 1] = idx[j];
    idx[j] = tmp;
  }
}

}  // namespace dps
