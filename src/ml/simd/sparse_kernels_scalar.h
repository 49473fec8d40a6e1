#ifndef ZOMBIE_ML_SIMD_SPARSE_KERNELS_SCALAR_H_
#define ZOMBIE_ML_SIMD_SPARSE_KERNELS_SCALAR_H_

#include <cstddef>
#include <cstdint>

#include "ml/simd/kernel_entries.h"  // kPrunedFeature

// Scalar reference kernels, verbatim the loop bodies that lived inline in
// sparse_vector.h before the dispatch layer. These are the bit-identity
// anchor: every ISA-specific kernel must reproduce their FP additions with
// the same operands in the same order (see the contract comment in
// sparse_vector.h), and the differential tests in tests/ml_simd_kernels_test.cc
// compare raw result bits against these.
//
// This header is included only by baseline-flag TUs (sparse_vector.h callers
// and dispatch.cc). The AVX TUs deliberately never include it — an inline
// function compiled under -mavx512* and picked by the linker would leak
// illegal opcodes into the scalar path on older hardware.

namespace zombie {
namespace simd {

/// Dense-side dot. Caller has already clamped `n` so every indices[i] is in
/// range of `dense` (the sorted-indices lower_bound cutoff in the wrapper).
/// Not a table entry: the wrapper calls it at every size.
inline double ScalarDotSparseDense(const uint32_t* indices,
                                   const double* values, size_t n,
                                   const double* dense) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += values[i] * dense[indices[i]];
  }
  return sum;
}

/// Run-skipping sparse·sparse merge. Requires na > 0 and nb > 0 (the
/// wrapper returns 0.0 for empty operands).
///
/// Only matches touch the accumulator (matches arrive in the same
/// ascending-index order as a classic three-way merge, so the FP addition
/// sequence is unchanged), while mismatch runs burn through a tight scan
/// loop whose only work is one compare + increment. On vector pairs the
/// branch predictor has not seen before — the production case — this is
/// ~1.6x faster than the three-way merge, whose per-element branch outcomes
/// are data-random. (Single-pair microbenchmarks hide that: repeating one
/// pair lets the predictor memorize the whole merge sequence, which
/// flatters the branchy form. bench_micro therefore cycles a pool of
/// pairs.) A cmov-style conditional-increment merge is ~2x slower either
/// way: it serializes the load→compare→advance chain.
inline double ScalarDotSparseSparse(const uint32_t* ai, const double* av,
                                    size_t na, const uint32_t* bi,
                                    const double* bv, size_t nb) {
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (true) {
    const uint32_t b = bi[j];
    while (ai[i] < b) {
      if (++i == na) return sum;
    }
    const uint32_t a = ai[i];
    while (bi[j] < a) {
      if (++j == nb) return sum;
    }
    if (bi[j] == a) {
      sum += av[i] * bv[j];
      if (++i == na || ++j == nb) return sum;
    }
  }
}

/// Reference remap compaction (contract in sparse_kernels.h next to
/// RemapSparseViewFn). No FP arithmetic — the bit-identity obligation on the
/// ISA variants is to emit exactly this kept sequence. The in-place case is
/// trivially safe here: `out` never passes `i`.
inline size_t ScalarRemapSparseView(const uint32_t* indices,
                                    const double* values, size_t n,
                                    const uint32_t* remap, size_t remap_size,
                                    uint32_t* out_indices,
                                    double* out_values) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t idx = indices[i];
    if (idx >= remap_size) break;  // sorted: the rest are out of range too
    const uint32_t dense = remap[idx];
    if (dense == kPrunedFeature) continue;
    out_indices[out] = dense;
    out_values[out] = values[i];
    ++out;
  }
  return out;
}

/// Block-to-tile squared distances (contract next to SquaredL2BlockFn in
/// sparse_kernels.h). For each point, the tile's lanes are independent
/// accumulators, each fed its terms in ascending d, so the compiler may
/// vectorize across lanes but the per-lane sum is the serial SquaredL2
/// chain.
inline void ScalarSquaredL2Block(const double* points, size_t num_points,
                                 const double* lanes, size_t dim,
                                 double* out) {
  for (size_t p = 0; p < num_points; ++p) {
    const double* point = points + p * dim;
    double acc[kDistanceLanes] = {};
    for (size_t d = 0; d < dim; ++d) {
      const double x = point[d];
      const double* row = lanes + d * kDistanceLanes;
      for (size_t l = 0; l < kDistanceLanes; ++l) {
        const double diff = x - row[l];
        acc[l] += diff * diff;
      }
    }
    for (size_t l = 0; l < kDistanceLanes; ++l) {
      out[p * kDistanceLanes + l] = acc[l];
    }
  }
}

}  // namespace simd
}  // namespace zombie

#endif  // ZOMBIE_ML_SIMD_SPARSE_KERNELS_SCALAR_H_
