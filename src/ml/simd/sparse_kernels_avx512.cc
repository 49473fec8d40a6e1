// AVX-512 implementations of the four sparse kernels (the dense lane
// kernel reuses the AVX2 entry; see dispatch.cc). Compiled with
// "-mavx512f -mavx512bw -mavx512dq -mavx512vl -mavx512cd -ffp-contract=off"
// and reached only through the dispatch table after cpuid confirms the full
// feature set (see simd_level.cc). Same isolation and bit-identity rules as
// the AVX2 TU: anonymous-namespace helpers, raw entry points, SIMD on index
// scans and independent multiplies only, every accumulator add serial and
// in scalar order.

#include <cstddef>
#include <cstdint>
#include <immintrin.h>

#include "ml/simd/kernel_entries.h"

#if defined(ZOMBIE_SIMD_HAVE_AVX512)

namespace zombie {
namespace simd {
namespace {

// First position >= i whose index is >= bound, or n. 16 indices per
// compare; AVX-512 has a native unsigned compare, so no sign-bias trick is
// needed for UINT32_MAX-adjacent indices. Scalar probe prefix as in the
// AVX2 TU: runs of ~2 (balanced merges) stay at scalar cost, long runs
// (unbalanced merges) retire 16 indices per compare.
inline size_t AdvanceTo(const uint32_t* idx, size_t i, size_t n,
                        uint32_t bound) {
  for (int probe = 0; probe < 4; ++probe) {
    if (i == n || idx[i] >= bound) return i;
    ++i;
  }
  const __m512i vbound = _mm512_set1_epi32(static_cast<int32_t>(bound));
  for (; i + 16 <= n; i += 16) {
    const __m512i lanes = _mm512_loadu_si512(idx + i);
    const unsigned below = _mm512_cmplt_epu32_mask(lanes, vbound);
    if (below != 0xffffu) {
      return i + static_cast<size_t>(__builtin_ctz(~below & 0x1ffffu));
    }
  }
  while (i < n && idx[i] < bound) ++i;
  return i;
}

// s += v[k]^2 for k in [i, end), in order: 8-wide squares, serial adds.
inline double AccumulateSquares(const double* v, size_t i, size_t end,
                                double s) {
  alignas(64) double sq[8];
  for (; i + 8 <= end; i += 8) {
    const __m512d lanes = _mm512_loadu_pd(v + i);
    _mm512_store_pd(sq, _mm512_mul_pd(lanes, lanes));
    for (int k = 0; k < 8; ++k) s += sq[k];
  }
  for (; i < end; ++i) s += v[i] * v[i];
  return s;
}

}  // namespace

double Avx512DotSparseSparse(const uint32_t* ai, const double* av, size_t na,
                             const uint32_t* bi, const double* bv,
                             size_t nb) {
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

void Avx512AddScaledTo(const uint32_t* indices, const double* values,
                       size_t n, double scale, double* out) {
  // See the AVX2 TU: distinct slots, vectorized multiply, serial RMW.
  const __m512d vscale = _mm512_set1_pd(scale);
  alignas(64) double prod[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_store_pd(prod,
                    _mm512_mul_pd(vscale, _mm512_loadu_pd(values + i)));
    for (int k = 0; k < 8; ++k) {
      out[indices[i + static_cast<size_t>(k)]] += prod[k];
    }
  }
  for (; i < n; ++i) out[indices[i]] += scale * values[i];
}

double Avx512SquaredDistance(const uint32_t* ai, const double* av, size_t na,
                             const uint32_t* bi, const double* bv,
                             size_t nb) {
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

size_t Avx512RemapSparseView(const uint32_t* indices, const double* values,
                             size_t n, const uint32_t* remap,
                             size_t remap_size, uint32_t* out_indices,
                             double* out_values) {
  // Same in-range prefix as scalar (ids >= remap_size are a sorted suffix).
  size_t limit = n;
  if (remap_size <= static_cast<size_t>(UINT32_MAX)) {
    limit = AdvanceTo(indices, 0, n, static_cast<uint32_t>(remap_size));
  }
  size_t i = 0;
  size_t out = 0;
  // vpgatherdd sign-extends its 32-bit indices; ids above INT32_MAX must
  // take the scalar loop (sorted, so the last in-range id bounds them all).
  if (limit >= 8 && indices[limit - 1] <= static_cast<uint32_t>(INT32_MAX)) {
    const __m256i pruned = _mm256_set1_epi32(-1);  // kPrunedFeature
    for (; i + 8 <= limit; i += 8) {
      const __m256i vidx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(indices + i));
      // Masked form with an explicit zero source: the plain gather
      // intrinsic's "uninitialized pass-through" idiom trips
      // -Wmaybe-uninitialized under -Werror builds.
      const __m256i dense = _mm256_mmask_i32gather_epi32(
          _mm256_setzero_si256(), static_cast<__mmask8>(0xff), vidx,
          reinterpret_cast<const int*>(remap), 4);
      const __mmask8 keep = _mm256_cmpneq_epu32_mask(dense, pruned);
      // vpcompressd/vpcompresspd store exactly popcount(keep) elements, so
      // in-place operation never writes past the read cursor.
      _mm256_mask_compressstoreu_epi32(out_indices + out, keep, dense);
      _mm512_mask_compressstoreu_pd(out_values + out, keep,
                                    _mm512_loadu_pd(values + i));
      out += static_cast<size_t>(
          __builtin_popcount(static_cast<unsigned>(keep)));
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

}  // namespace simd
}  // namespace zombie

#endif  // ZOMBIE_SIMD_HAVE_AVX512
