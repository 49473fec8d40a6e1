#include "ml/simd/simd_level.h"

#include <cstdlib>

#include "util/logging.h"
#include "util/string_util.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace zombie {
namespace simd {
namespace {

#if defined(__x86_64__) || defined(__i386__)

// XCR0 bits the OS must set before the corresponding register state is
// usable: without them cpuid may advertise AVX on hardware whose kernel
// never context-switches the wide registers.
constexpr uint64_t kXcr0Ymm = 0x6;          // XMM + YMM state
constexpr uint64_t kXcr0Zmm = 0xe6;         // + opmask, ZMM_Hi256, Hi16_ZMM

uint64_t ReadXcr0() {
  uint32_t eax = 0;
  uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

SimdLevel ProbeCpu() {
  uint32_t eax = 0;
  uint32_t ebx = 0;
  uint32_t ecx = 0;
  uint32_t edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return SimdLevel::kScalar;
  const bool has_osxsave = (ecx & (1u << 27)) != 0;
  const bool has_avx = (ecx & (1u << 28)) != 0;
  // The AVX2 TU also holds the record CRC's carry-less fold. Every AVX2
  // core has PCLMULQDQ; requiring it keeps the avx2 level one feature set.
  const bool has_pclmul = (ecx & (1u << 1)) != 0;
  if (!has_osxsave || !has_avx || !has_pclmul) return SimdLevel::kScalar;
  const uint64_t xcr0 = ReadXcr0();
  if ((xcr0 & kXcr0Ymm) != kXcr0Ymm) return SimdLevel::kScalar;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return SimdLevel::kScalar;
  }
  const bool has_avx2 = (ebx & (1u << 5)) != 0;
  if (!has_avx2) return SimdLevel::kScalar;
  // The kernels use F (foundation), BW (byte/word masks), DQ (i64/f64
  // compares), VL (256-bit forms), and CD (conflict detection); require the
  // whole set — it is what -mavx512f -mavx512bw -mavx512dq -mavx512vl
  // -mavx512cd compiles against, and every AVX-512 server core since
  // Skylake-SP has all five.
  const bool has_avx512 = (ebx & (1u << 16)) != 0 &&  // F
                          (ebx & (1u << 30)) != 0 &&  // BW
                          (ebx & (1u << 17)) != 0 &&  // DQ
                          (ebx & (1u << 31)) != 0 &&  // VL
                          (ebx & (1u << 28)) != 0;    // CD
  if (has_avx512 && (ReadXcr0() & kXcr0Zmm) == kXcr0Zmm) {
    return SimdLevel::kAvx512;
  }
  return SimdLevel::kAvx2;
}

#else  // non-x86

SimdLevel ProbeCpu() { return SimdLevel::kScalar; }

#endif

SimdLevel Min(SimdLevel a, SimdLevel b) { return a < b ? a : b; }

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

StatusOr<SimdLevel> ParseSimdLevel(const std::string& name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "avx512") return SimdLevel::kAvx512;
  return Status::InvalidArgument(
      StrFormat("bad SIMD level \"%s\" (want scalar, avx2, or avx512)",
                name.c_str()));
}

SimdLevel DetectCpuSimdLevel() {
  static const SimdLevel level = ProbeCpu();
  return level;
}

SimdLevel CompiledSimdLevel() {
#if defined(ZOMBIE_SIMD_HAVE_AVX512)
  return SimdLevel::kAvx512;
#elif defined(ZOMBIE_SIMD_HAVE_AVX2)
  return SimdLevel::kAvx2;
#else
  return SimdLevel::kScalar;
#endif
}

StatusOr<SimdLevel> ComputeActiveSimdLevel(const char* forced_env,
                                           SimdLevel detected,
                                           SimdLevel compiled) {
  const SimdLevel native = Min(detected, compiled);
  if (forced_env == nullptr) return native;
  StatusOr<SimdLevel> forced_or = ParseSimdLevel(forced_env);
  if (!forced_or.ok()) return forced_or.status();
  const SimdLevel forced = forced_or.value();
  if (forced > native) {
    ZLOG(Warning) << "ZOMBIE_SIMD_LEVEL=" << SimdLevelName(forced)
                  << " not available (cpu supports " << SimdLevelName(detected)
                  << ", binary compiled for " << SimdLevelName(compiled)
                  << "); running at " << SimdLevelName(native);
    return native;
  }
  return forced;
}

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level = [] {
    StatusOr<SimdLevel> resolved = ComputeActiveSimdLevel(
        std::getenv("ZOMBIE_SIMD_LEVEL"), DetectCpuSimdLevel(),
        CompiledSimdLevel());
    ZCHECK(resolved.ok()) << resolved.status().ToString();
    return resolved.value();
  }();
  return level;
}

}  // namespace simd
}  // namespace zombie
