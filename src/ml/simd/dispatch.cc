#include "ml/simd/kernel_entries.h"
#include "ml/simd/simd_level.h"
#include "ml/simd/sparse_kernels.h"
#include "ml/simd/sparse_kernels_scalar.h"

namespace zombie {
namespace simd {
namespace {

const SparseKernels kScalarTable = {
    &ScalarDotSparseSparse,
    &ScalarRemapSparseView,
    &ScalarSquaredL2Block,
    nullptr,  // no carry-less multiply: Crc32 runs slicing-by-8 throughout
};

#if defined(ZOMBIE_SIMD_HAVE_AVX2)
const SparseKernels kAvx2Table = {
    &Avx2DotSparseSparse,
    &Avx2RemapSparseView,
    &Avx2SquaredL2Block,
    &ClmulCrc32Fold,
};
#endif

#if defined(ZOMBIE_SIMD_HAVE_AVX512)
// The CRC fold has no AVX-512 variant: a 4 KB record folds in ~0.1 us
// with 128-bit carry-less multiplies already.
const SparseKernels kAvx512Table = {
    &Avx512DotSparseSparse,
    &Avx512RemapSparseView,
    &Avx512SquaredL2Block,
    &ClmulCrc32Fold,
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
