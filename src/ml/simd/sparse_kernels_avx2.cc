// AVX2 implementations of the four sparse kernels and the dense
// point-to-lanes distance. Compiled with
// "-mavx2 -ffp-contract=off" (see src/CMakeLists.txt); only reached through
// the dispatch table after cpuid confirms AVX2, so nothing here may leak
// into other TUs — helpers stay in the anonymous namespace and the only
// project include is the raw entry-point header (see kernel_entries.h for
// the ODR rationale).
//
// Bit-identity strategy (the contract in sparse_kernels_scalar.h): SIMD is
// applied to index scanning and to independent multiplies only. Every
// accumulator add is performed serially, on the same operands, in scalar
// program order. Products may be computed 4 at a time because each lane is
// the same single-rounding IEEE multiply the scalar loop performs; with FP
// contraction off neither path fuses mul+add.

#include <cstddef>
#include <cstdint>
#include <immintrin.h>

#include "ml/simd/kernel_entries.h"

#if defined(ZOMBIE_SIMD_HAVE_AVX2)

namespace zombie {
namespace simd {
namespace {

// First position >= i whose index is >= bound, or n. `idx` is sorted
// ascending, so the lanes comparing below bound form a prefix of each
// 8-lane block. AVX2 has no unsigned 32-bit compare: XOR both sides with
// the sign bit and compare signed (order-preserving bijection), which keeps
// UINT32_MAX-adjacent indices — a tested part of the contract — correct.
//
// Hybrid scan: a short scalar probe first, vectors only for what remains.
// Merging two streams of similar density yields mismatch runs of ~2, where
// a 32-byte compare per advance costs more than two scalar steps; the
// vector loop pays off on the long runs of unbalanced merges (a doc row
// against a centroid-sized row, the kNN/k-means shape), where each compare
// retires 8 indices.
inline size_t AdvanceTo(const uint32_t* idx, size_t i, size_t n,
                        uint32_t bound) {
  for (int probe = 0; probe < 4; ++probe) {
    if (i == n || idx[i] >= bound) return i;
    ++i;
  }
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const __m256i vbound = _mm256_xor_si256(
      _mm256_set1_epi32(static_cast<int32_t>(bound)), sign);
  for (; i + 8 <= n; i += 8) {
    const __m256i lanes = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i)), sign);
    const unsigned below = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(vbound, lanes))));
    if (below != 0xffu) {
      return i + static_cast<size_t>(__builtin_ctz(~below));
    }
  }
  while (i < n && idx[i] < bound) ++i;
  return i;
}

// s += v[k]^2 for k in [i, end), in order. Squares are vectorized (one
// multiply per element either way); the adds stay serial and ordered.
inline double AccumulateSquares(const double* v, size_t i, size_t end,
                                double s) {
  alignas(32) double sq[4];
  for (; i + 4 <= end; i += 4) {
    const __m256d lanes = _mm256_loadu_pd(v + i);
    _mm256_store_pd(sq, _mm256_mul_pd(lanes, lanes));
    s += sq[0];
    s += sq[1];
    s += sq[2];
    s += sq[3];
  }
  for (; i < end; ++i) s += v[i] * v[i];
  return s;
}

}  // namespace

double Avx2DotSparseSparse(const uint32_t* ai, const double* av, size_t na,
                           const uint32_t* bi, const double* bv, size_t nb) {
  // Same run-skipping merge as scalar, with the mismatch scans — the
  // dominant cost at production sparsity, where matches are rare — eating 8
  // indices per compare. Matches are found in the identical ascending
  // order, so the FP addition sequence is unchanged.
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (true) {
    i = AdvanceTo(ai, i, na, bi[j]);
    if (i == na) return sum;
    j = AdvanceTo(bi, j, nb, ai[i]);
    if (j == nb) return sum;
    if (bi[j] == ai[i]) {
      sum += av[i] * bv[j];
      if (++i == na || ++j == nb) return sum;
    }
  }
}

void Avx2AddScaledTo(const uint32_t* indices, const double* values, size_t n,
                     double scale, double* out) {
  // Indices are strictly increasing, so every write hits a distinct slot:
  // the read-modify-writes are independent and each slot sees exactly the
  // scalar loop's single `+= scale * value` add. Only the multiply is
  // vectorized; scatter/gather forms lose on current cores and would need
  // an INT32_MAX guard besides.
  const __m256d vscale = _mm256_set1_pd(scale);
  alignas(32) double prod[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(prod,
                    _mm256_mul_pd(vscale, _mm256_loadu_pd(values + i)));
    out[indices[i]] += prod[0];
    out[indices[i + 1]] += prod[1];
    out[indices[i + 2]] += prod[2];
    out[indices[i + 3]] += prod[3];
  }
  for (; i < n; ++i) out[indices[i]] += scale * values[i];
}

double Avx2SquaredDistance(const uint32_t* ai, const double* av, size_t na,
                           const uint32_t* bi, const double* bv, size_t nb) {
  // Three-way merge with the same accumulation order as scalar. Unlike Dot,
  // every element touches the accumulator, so mismatch runs cannot be
  // skipped — but their squares can be computed 4 wide between the ordered
  // adds, and AdvanceTo finds each run's end 8 indices per compare.
  double s = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    const uint32_t a = ai[i];
    const uint32_t b = bi[j];
    if (a == b) {
      const double d = av[i] - bv[j];
      s += d * d;
      ++i;
      ++j;
    } else if (a < b) {
      const size_t end = AdvanceTo(ai, i, na, b);
      s = AccumulateSquares(av, i, end, s);
      i = end;
    } else {
      const size_t end = AdvanceTo(bi, j, nb, a);
      s = AccumulateSquares(bv, j, end, s);
      j = end;
    }
  }
  s = AccumulateSquares(av, i, na, s);
  s = AccumulateSquares(bv, j, nb, s);
  return s;
}

namespace {

// Branchless left-pack tables for RemapSparseView, indexed by the 4-bit
// kept mask of a block. AVX2 has no compress-store, so the kept lanes are
// shuffled to the front and stored full-width: kCompress32 is the
// _mm_shuffle_epi8 byte pattern packing the kept uint32 lanes (0x80 zeroes
// the dead tail), kCompress64 the _mm256_permutevar8x32_epi32 lane pattern
// packing the matching doubles viewed as int32 pairs.
struct Compress32Lut {
  alignas(16) uint8_t bytes[16][16];
};

constexpr Compress32Lut MakeCompress32Lut() {
  Compress32Lut lut{};
  for (int mask = 0; mask < 16; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask & (1 << lane)) == 0) continue;
      for (int b = 0; b < 4; ++b) {
        lut.bytes[mask][out * 4 + b] = static_cast<uint8_t>(lane * 4 + b);
      }
      ++out;
    }
    for (; out < 4; ++out) {
      for (int b = 0; b < 4; ++b) lut.bytes[mask][out * 4 + b] = 0x80;
    }
  }
  return lut;
}

constexpr Compress32Lut kCompress32 = MakeCompress32Lut();

struct Compress64Lut {
  alignas(32) int32_t lanes[16][8];
};

constexpr Compress64Lut MakeCompress64Lut() {
  Compress64Lut lut{};
  for (int mask = 0; mask < 16; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask & (1 << lane)) == 0) continue;
      lut.lanes[mask][out * 2] = lane * 2;
      lut.lanes[mask][out * 2 + 1] = lane * 2 + 1;
      ++out;
    }
    // Slots past the kept count stay 0: their stored contents are dead
    // (the next block's store or the final kept count covers them).
  }
  return lut;
}

constexpr Compress64Lut kCompress64 = MakeCompress64Lut();

}  // namespace

size_t Avx2RemapSparseView(const uint32_t* indices, const double* values,
                           size_t n, const uint32_t* remap, size_t remap_size,
                           uint32_t* out_indices, double* out_values) {
  // Same in-range prefix as scalar: indices are sorted, so ids >= remap_size
  // form a suffix that AdvanceTo locates 8 lanes per compare.
  size_t limit = n;
  if (remap_size <= static_cast<size_t>(UINT32_MAX)) {
    limit = AdvanceTo(indices, 0, n, static_cast<uint32_t>(remap_size));
  }
  size_t i = 0;
  size_t out = 0;
  // vpgatherdd sign-extends its 32-bit indices; ids above INT32_MAX must
  // take the scalar loop (sorted, so the last in-range id bounds them all).
  if (limit >= 4 && indices[limit - 1] <= static_cast<uint32_t>(INT32_MAX)) {
    const __m128i pruned = _mm_set1_epi32(-1);  // kPrunedFeature
    for (; i + 4 <= limit; i += 4) {
      const __m128i vidx = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(indices + i));
      const __m128i dense = _mm_i32gather_epi32(
          reinterpret_cast<const int*>(remap), vidx, 4);
      const unsigned kept = 0xfu & ~static_cast<unsigned>(_mm_movemask_ps(
          _mm_castsi128_ps(_mm_cmpeq_epi32(dense, pruned))));
      // Full-width stores past the kept lanes are safe in-place: the write
      // cursor trails the read cursor (out <= i) and both blocks of this
      // iteration are already in registers.
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out_indices + out),
          _mm_shuffle_epi8(dense,
                           _mm_load_si128(reinterpret_cast<const __m128i*>(
                               kCompress32.bytes[kept]))));
      const __m256i vals = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + i));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out_values + out),
          _mm256_permutevar8x32_epi32(
              vals, _mm256_load_si256(reinterpret_cast<const __m256i*>(
                        kCompress64.lanes[kept]))));
      out += static_cast<size_t>(__builtin_popcount(kept));
    }
  }
  for (; i < limit; ++i) {
    const uint32_t dense = remap[indices[i]];
    if (dense == kPrunedFeature) continue;
    out_indices[out] = dense;
    out_values[out] = values[i];
    ++out;
  }
  return out;
}

void Avx2SquaredL2ToLanes(const double* point, const double* lanes,
                          size_t dim, double* out) {
  // Two 4-lane accumulators, one per half of the 8-lane block. Each lane
  // takes its terms in ascending d through one sub, one mul and one add —
  // the scalar SquaredL2 chain, vectorized across lanes only. The cost is
  // the add latency along d, which is why there is no AVX-512 variant: one
  // 8-wide chain would be no shorter than these two 4-wide ones.
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  for (size_t d = 0; d < dim; ++d) {
    const __m256d p = _mm256_broadcast_sd(point + d);
    const double* row = lanes + d * kDistanceLanes;
    const __m256d dlo = _mm256_sub_pd(p, _mm256_loadu_pd(row));
    const __m256d dhi = _mm256_sub_pd(p, _mm256_loadu_pd(row + 4));
    lo = _mm256_add_pd(lo, _mm256_mul_pd(dlo, dlo));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(dhi, dhi));
  }
  _mm256_storeu_pd(out, lo);
  _mm256_storeu_pd(out + 4, hi);
}

}  // namespace simd
}  // namespace zombie

#endif  // ZOMBIE_SIMD_HAVE_AVX2
