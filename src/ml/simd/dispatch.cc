#include "ml/simd/kernel_entries.h"
#include "ml/simd/simd_level.h"
#include "ml/simd/sparse_kernels.h"
#include "ml/simd/sparse_kernels_scalar.h"

namespace zombie {
namespace simd {
namespace {

const SparseKernels kScalarTable = {
    &ScalarDotSparseSparse,
    &ScalarAddScaledTo,
    &ScalarSquaredDistance,
    &ScalarRemapSparseView,
    &ScalarSquaredL2ToLanes,
};

#if defined(ZOMBIE_SIMD_HAVE_AVX2)
const SparseKernels kAvx2Table = {
    &Avx2DotSparseSparse,
    &Avx2AddScaledTo,
    &Avx2SquaredDistance,
    &Avx2RemapSparseView,
    &Avx2SquaredL2ToLanes,
};
#endif

#if defined(ZOMBIE_SIMD_HAVE_AVX512)
// The lane kernel has no AVX-512 variant: its cost is the serial add chain
// per lane, which wider registers do not shorten.
const SparseKernels kAvx512Table = {
    &Avx512DotSparseSparse,
    &Avx512AddScaledTo,
    &Avx512SquaredDistance,
    &Avx512RemapSparseView,
    &Avx2SquaredL2ToLanes,
};
#endif

}  // namespace

const SparseKernels* KernelsForLevel(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarTable;
    case SimdLevel::kAvx2:
#if defined(ZOMBIE_SIMD_HAVE_AVX2)
      return &kAvx2Table;
#else
      return nullptr;
#endif
    case SimdLevel::kAvx512:
#if defined(ZOMBIE_SIMD_HAVE_AVX512)
      return &kAvx512Table;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const SparseKernels& ActiveKernels() {
  // Resolved once; ActiveSimdLevel() never exceeds CompiledSimdLevel(), so
  // the lookup cannot return nullptr.
  static const SparseKernels* const active = KernelsForLevel(ActiveSimdLevel());
  return *active;
}

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel cap = DetectCpuSimdLevel();
  for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= cap && KernelsForLevel(level) != nullptr) {
      levels.push_back(level);
    }
  }
  return levels;
}

}  // namespace simd
}  // namespace zombie
