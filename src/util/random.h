#ifndef ZOMBIE_UTIL_RANDOM_H_
#define ZOMBIE_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace zombie {

/// Deterministic, seedable PRNG used everywhere in the library.
///
/// Implementation is xoshiro256** seeded via splitmix64. We roll our own
/// rather than using std::mt19937 so that (a) streams are identical across
/// standard libraries and platforms — experiment traces must be bit-for-bit
/// reproducible — and (b) Fork() can derive independent child streams.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64 random bits.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound). bound must be positive. Uses rejection
  /// sampling (Lemire-style) to avoid modulo bias.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Standard normal via Box–Muller (caches the second deviate).
  double NextGaussian();

  /// Gaussian with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Lognormal: exp(N(mu, sigma)).
  double NextLogNormal(double mu, double sigma);

  /// Gamma(shape, scale) via Marsaglia–Tsang; shape > 0, scale > 0.
  double NextGamma(double shape, double scale);

  /// Beta(alpha, beta) via two Gamma draws; both parameters > 0.
  double NextBeta(double alpha, double beta);

  /// Zipf-distributed rank in [0, n) with exponent s >= 0 (s = 0 is
  /// uniform). Uses a precomputed-free inversion approximation suitable for
  /// vocabulary sampling; exact normalization is not required for workload
  /// generation but the distribution is a true Zipf via rejection.
  uint64_t NextZipf(uint64_t n, double s);

  /// Samples an index according to non-negative `weights` (need not be
  /// normalized). Returns weights.size() if all weights are zero or the
  /// vector is empty.
  size_t NextDiscrete(const std::vector<double>& weights);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->size() < 2) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Derives an independent child generator; the i-th fork of a given
  /// generator state is deterministic.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Stable 64-bit hash (splitmix64 finalizer) for deriving per-entity seeds.
uint64_t HashCombine(uint64_t a, uint64_t b);

/// FNV-1a hash of a byte string; used for feature hashing and domain ids.
uint64_t HashBytes(const void* data, size_t len);

}  // namespace zombie

#endif  // ZOMBIE_UTIL_RANDOM_H_
