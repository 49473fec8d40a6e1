#ifndef ZOMBIE_ML_SIMD_KERNEL_ENTRIES_H_
#define ZOMBIE_ML_SIMD_KERNEL_ENTRIES_H_

#include <cstddef>
#include <cstdint>

// Entry-point declarations shared between dispatch.cc and the per-ISA TUs.
// Deliberately minimal: this is the only project header the -mavx2/-mavx512*
// TUs include. Anything more (std containers, inline helpers) would risk the
// linker picking an AVX-compiled instantiation of a weak symbol that scalar
// callers also use — an ODR trap that turns "runs on any x86-64" into
// SIGILL on pre-AVX hardware. All helpers inside the per-ISA TUs live in
// anonymous namespaces for the same reason.

namespace zombie {
namespace simd {

/// Remap-table sentinel for a pruned feature id (see RemapSparseViewFn in
/// sparse_kernels.h). Lives here because the per-ISA TUs need it and this is
/// the only project header they may include.
constexpr uint32_t kPrunedFeature = 0xffffffffu;

/// Vectors per SquaredL2ToLanes call (see SquaredL2ToLanesFn in
/// sparse_kernels.h): the lane-interleaved block width.
constexpr size_t kDistanceLanes = 8;

#if defined(ZOMBIE_SIMD_HAVE_AVX2)
double Avx2DotSparseSparse(const uint32_t* ai, const double* av, size_t na,
                           const uint32_t* bi, const double* bv, size_t nb);
void Avx2AddScaledTo(const uint32_t* indices, const double* values, size_t n,
                     double scale, double* out);
double Avx2SquaredDistance(const uint32_t* ai, const double* av, size_t na,
                           const uint32_t* bi, const double* bv, size_t nb);
size_t Avx2RemapSparseView(const uint32_t* indices, const double* values,
                           size_t n, const uint32_t* remap, size_t remap_size,
                           uint32_t* out_indices, double* out_values);
// The AVX-512 table reuses this entry too (see dispatch.cc).
void Avx2SquaredL2ToLanes(const double* point, const double* lanes,
                          size_t dim, double* out);
#endif

#if defined(ZOMBIE_SIMD_HAVE_AVX512)
double Avx512DotSparseSparse(const uint32_t* ai, const double* av, size_t na,
                             const uint32_t* bi, const double* bv, size_t nb);
void Avx512AddScaledTo(const uint32_t* indices, const double* values,
                       size_t n, double scale, double* out);
double Avx512SquaredDistance(const uint32_t* ai, const double* av, size_t na,
                             const uint32_t* bi, const double* bv, size_t nb);
size_t Avx512RemapSparseView(const uint32_t* indices, const double* values,
                             size_t n, const uint32_t* remap,
                             size_t remap_size, uint32_t* out_indices,
                             double* out_values);
#endif

}  // namespace simd
}  // namespace zombie

#endif  // ZOMBIE_ML_SIMD_KERNEL_ENTRIES_H_
