#ifndef ZOMBIE_ML_SIMD_SIMD_LEVEL_H_
#define ZOMBIE_ML_SIMD_SIMD_LEVEL_H_

#include <string>

#include "util/status.h"

namespace zombie {
namespace simd {

/// ISA tiers the dispatch layer distinguishes. Ordered: a higher level
/// implies the hardware can also run every lower one, so "clamp to the
/// minimum of detected/compiled/forced" is the whole resolution story.
enum class SimdLevel {
  kScalar = 0,  // baseline x86-64 (or any non-x86 target); the reference path
  kAvx2 = 1,    // AVX2 (256-bit integer + FP lanes) and PCLMULQDQ
  kAvx512 = 2,  // AVX-512 F/BW/DQ/VL/CD (512-bit lanes + mask registers)
};

/// Canonical lowercase name ("scalar", "avx2", "avx512"); these are the
/// accepted ZOMBIE_SIMD_LEVEL values and the names CI prints.
const char* SimdLevelName(SimdLevel level);

/// Parses a ZOMBIE_SIMD_LEVEL value. Only the exact canonical names are
/// accepted; anything else is InvalidArgument (a typo silently falling back
/// to native dispatch would defeat the point of forcing a level).
StatusOr<SimdLevel> ParseSimdLevel(const std::string& name);

/// Highest level the running CPU supports, probed once via cpuid (including
/// the xgetbv check that the OS actually saves the wider register state).
SimdLevel DetectCpuSimdLevel();

/// Highest level this binary has kernels compiled for (depends on the
/// ZOMBIE_SIMD CMake option and what the compiler supported).
SimdLevel CompiledSimdLevel();

/// Pure resolution rule behind ActiveSimdLevel(), exposed for tests:
/// min(detected, compiled), further clamped *down* by a forced level.
/// `forced_env` is the raw ZOMBIE_SIMD_LEVEL value (nullptr when unset);
/// an unparsable value is an error, and forcing a level the CPU or binary
/// lacks downgrades with a warning rather than executing illegal opcodes.
StatusOr<SimdLevel> ComputeActiveSimdLevel(const char* forced_env,
                                           SimdLevel detected,
                                           SimdLevel compiled);

/// The level all dispatched kernels run at, resolved once on first use from
/// cpuid + CompiledSimdLevel() + the ZOMBIE_SIMD_LEVEL env override and then
/// immutable for the life of the process. Aborts on a malformed override —
/// a forced-dispatch CI matrix must never silently test the wrong path.
SimdLevel ActiveSimdLevel();

}  // namespace simd
}  // namespace zombie

#endif  // ZOMBIE_ML_SIMD_SIMD_LEVEL_H_
