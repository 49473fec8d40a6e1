#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace zombie {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  ZCHECK_GT(bound, 0u);
  // Rejection sampling over the top of the range to avoid modulo bias.
  uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  ZCHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  if (span == 0) return static_cast<int64_t>(NextUint64());
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  // 53 high bits -> uniform in [0,1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller; u1 in (0,1] so log(u1) is finite.
  double u1 = 1.0 - NextDouble();
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextGaussian(mu, sigma));
}

double Rng::NextGamma(double shape, double scale) {
  ZCHECK_GT(shape, 0.0);
  ZCHECK_GT(scale, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and correct (Marsaglia–Tsang trick).
    double u = NextDouble();
    while (u <= 0.0) u = NextDouble();
    return NextGamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = NextGaussian();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return scale * d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

double Rng::NextBeta(double alpha, double beta) {
  double x = NextGamma(alpha, 1.0);
  double y = NextGamma(beta, 1.0);
  double sum = x + y;
  if (sum <= 0.0) return 0.5;
  return x / sum;
}

uint64_t Rng::NextZipf(uint64_t n, double s) {
  ZCHECK_GT(n, 0u);
  if (n == 1) return 0;
  if (s <= 0.0) return NextBelow(n);
  // Rejection-inversion (Hörmann) for an exact Zipf over ranks 1..n.
  const double nd = static_cast<double>(n);
  auto h = [s](double x) {
    // Integral of x^{-s}.
    if (s == 1.0) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double y) {
    if (s == 1.0) return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double hx0 = h(0.5) - 1.0;  // h(1/2) - f(1)
  const double hn = h(nd + 0.5);
  for (;;) {
    double u = NextDouble() * (hn - hx0) + hx0;
    double x = h_inv(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n) k = n;
    double kd = static_cast<double>(k);
    if (u >= h(kd + 0.5) - std::pow(kd, -s)) {
      return k - 1;  // ranks are 0-based externally
    }
  }
}

size_t Rng::NextDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    ZCHECK_GE(w, 0.0);
    total += w;
  }
  if (total <= 0.0) return weights.size();
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  // Floating-point slack: return last positive-weight index.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size();
}

Rng Rng::Fork() { return Rng(NextUint64()); }

uint64_t HashCombine(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace zombie
