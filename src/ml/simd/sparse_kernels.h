#ifndef ZOMBIE_ML_SIMD_SPARSE_KERNELS_H_
#define ZOMBIE_ML_SIMD_SPARSE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/simd/kernel_entries.h"  // kPrunedFeature
#include "ml/simd/simd_level.h"

// Runtime ISA dispatch for the hot ML, index and store kernels: two sparse
// ones (the sparse·sparse dot and pruning's remap compaction), one dense
// distance kernel and the record CRC's carry-less fold. The contract every
// table entry obeys:
// bit-identical results to the scalar reference in
// sparse_kernels_scalar.h — same FP additions, same operands, same order.
// SIMD implementations may only vectorize *index* work (scanning mismatch
// runs, bound compares, gathers of independent slots) and independent
// accumulators (one per output lane); every accumulator update stays serial
// and in scalar program order. Compiled with
// -ffp-contract=off so no path silently fuses a mul+add the scalar code
// performs as two roundings.
//
// This header is intrinsics-free on purpose: callers (sparse_vector.h, the
// benches, the tests) see only raw-pointer function signatures, and the
// per-ISA TUs are the sole files allowed to include <immintrin.h> (enforced
// by the no-raw-intrinsics lint rule).

namespace zombie {
namespace simd {

using DotSparseSparseFn = double (*)(const uint32_t* ai, const double* av,
                                     size_t na, const uint32_t* bi,
                                     const double* bv, size_t nb);
/// Compacts a sorted sparse vector through a monotone old-id→dense-id remap
/// table: entries whose `remap[index]` is kPrunedFeature are dropped, every
/// other entry is rewritten to its dense id, and the kept count is returned.
/// Indices at or past `remap_size` are dropped (indices are sorted, so they
/// form a suffix). Because the table is monotone over kept ids, the output
/// stays sorted. Pure data movement — no FP arithmetic — so bit-identity
/// across ISA levels reduces to producing the identical kept sequence.
/// In-place operation (out_* aliasing the inputs) is allowed: the write
/// cursor never passes the read cursor. Out buffers must hold `n` entries.
using RemapSparseViewFn = size_t (*)(const uint32_t* indices,
                                     const double* values, size_t n,
                                     const uint32_t* remap, size_t remap_size,
                                     uint32_t* out_indices,
                                     double* out_values);

/// Dense squared Euclidean distances from a block of up to
/// kDistanceLanes (8) points to the 8 rows of one tile. The points are
/// `num_points` (1..8) contiguous rows of `dim` doubles; the tile stores
/// its rows lane-interleaved: component d of row l is lanes[d * 8 + l], so
/// `lanes` spans dim * 8 doubles. out[p * 8 + l] is the sum over
/// d = 0..dim-1, ascending, of (points[p * dim + d] - lanes[d * 8 + l])^2,
/// accumulated from 0.0 exactly as index/kmeans.h SquaredL2 does (one
/// subtract, one multiply, one add per term; no FMA, no reassociation), so
/// each output equals SquaredL2(point p, row l) bit for bit. dim == 0
/// writes zeros. `out` holds num_points * 8 doubles. The index routes all
/// its dense distances through here: k-means assignment passes 8
/// centroids per tile, seeding and nearest-centroid search pass one point.
using SquaredL2BlockFn = void (*)(const double* points, size_t num_points,
                                  const double* lanes, size_t dim,
                                  double* out);

/// CRC-32 (reflected polynomial 0xEDB88320) folding by carry-less
/// multiplication, the bulk body of util/crc32.h's Crc32. `len` is a
/// multiple of 16 and at least 64. Starting from the CRC register value
/// `state`, folds the `len` bytes at `data` into a 128-bit remainder and
/// writes it to `remainder` as 16 bytes whose CRC from a zero register
/// equals the register after all of `data`. Pure GF(2) arithmetic, so the
/// value cannot depend on the path. nullptr at levels without a carry-less
/// multiply (scalar): Crc32 then runs slicing-by-8 over the whole input.
using Crc32FoldFn = void (*)(uint32_t state, const uint8_t* data, size_t len,
                             uint8_t* remainder);

/// One dispatch table per ISA level. Preconditions (enforced by the
/// sparse_vector.h wrappers, which keep the cutoff/resize/empty logic):
///   dot_sparse_sparse: na > 0 && nb > 0
///   remap_sparse_view: out buffers hold n entries
///   squared_l2_block: 1 <= num_points <= 8 (called directly by the index)
///   crc32_fold: len % 16 == 0 && len >= 64 (called only by Crc32)
struct SparseKernels {
  DotSparseSparseFn dot_sparse_sparse;
  RemapSparseViewFn remap_sparse_view;
  SquaredL2BlockFn squared_l2_block;
  Crc32FoldFn crc32_fold;
};

/// Table for the level resolved once from cpuid + compiled support +
/// ZOMBIE_SIMD_LEVEL (see ActiveSimdLevel()). The reference the hot path
/// calls through; the pointer never changes after first use.
const SparseKernels& ActiveKernels();

/// Table for an explicit level, or nullptr if this binary was not compiled
/// with kernels for it. Returns compiled tables regardless of what the
/// running CPU supports — callers that intend to *execute* (tests, benches)
/// must pick levels from AvailableLevels() instead.
const SparseKernels* KernelsForLevel(SimdLevel level);

/// Levels that are both compiled in and runnable on this CPU, ascending.
/// Always contains kScalar. This is what the differential tests and the
/// per-ISA benches iterate over.
std::vector<SimdLevel> AvailableLevels();

/// Below this many touched entries the wrappers skip the function-pointer
/// hop and inline the scalar loop directly: tiny vectors are common in the
/// feature pipeline, the call indirection costs more than SIMD saves, and
/// both paths are bit-identical by contract so the cutover is unobservable.
constexpr size_t kSimdMinEntries = 16;

}  // namespace simd
}  // namespace zombie

#endif  // ZOMBIE_ML_SIMD_SPARSE_KERNELS_H_
