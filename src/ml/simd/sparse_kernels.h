#ifndef ZOMBIE_ML_SIMD_SPARSE_KERNELS_H_
#define ZOMBIE_ML_SIMD_SPARSE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/simd/kernel_entries.h"  // kPrunedFeature
#include "ml/simd/simd_level.h"

// Runtime ISA dispatch for the hot ML and index kernels: two sparse ones
// (the sparse·sparse dot and pruning's remap compaction) and one dense
// distance kernel. The contract every table entry obeys:
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

/// Dense squared Euclidean distances from one point to kDistanceLanes (8)
/// vectors stored lane-interleaved: component d of vector l is
/// lanes[d * 8 + l], so `lanes` spans dim * 8 doubles. out[l] is
/// sum over d = 0..dim-1, ascending, of (point[d] - lanes[d * 8 + l])^2,
/// accumulated from 0.0 exactly as index/kmeans.h SquaredL2 does (one
/// subtract, one multiply, one add per term; no FMA, no reassociation), so
/// each lane equals SquaredL2(point, vector l) bit for bit. dim == 0 writes
/// eight zeros. The index routes all its dense distances through here
/// (k-means assignment and seeding, incremental nearest-centroid search).
using SquaredL2ToLanesFn = void (*)(const double* point, const double* lanes,
                                    size_t dim, double* out);

/// One dispatch table per ISA level. Preconditions (enforced by the
/// sparse_vector.h wrappers, which keep the cutoff/resize/empty logic):
///   dot_sparse_sparse: na > 0 && nb > 0
///   remap_sparse_view: out buffers hold n entries
///   squared_l2_to_lanes: none (called directly by the index)
struct SparseKernels {
  DotSparseSparseFn dot_sparse_sparse;
  RemapSparseViewFn remap_sparse_view;
  SquaredL2ToLanesFn squared_l2_to_lanes;
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
