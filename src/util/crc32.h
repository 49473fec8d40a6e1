#ifndef ZOMBIE_UTIL_CRC32_H_
#define ZOMBIE_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

#include "ml/simd/sparse_kernels.h"

namespace zombie {

/// CRC-32 as zlib and gzip compute it: reflected polynomial 0xEDB88320,
/// initial value and final xor 0xFFFFFFFF. Crc32("123456789", 9) is
/// 0xCBF43926 and the empty input gives 0.
///
/// Inputs of 64 bytes or more run their 16-byte blocks through the
/// dispatch table's carry-less fold (simd::Crc32FoldFn), chosen once per
/// process; the rest, and every input at the scalar level, runs
/// slicing-by-8: eight 256-entry tables (built at compile time) let each
/// step fold eight input bytes with eight independent lookups. Same
/// polynomial, same value for every input; only the speed differs.
uint32_t Crc32(const void* data, size_t len);

/// Crc32 with an explicit fold body (nullptr: slicing-by-8 throughout), for
/// the tests and benches that compare the two.
uint32_t Crc32WithFold(simd::Crc32FoldFn fold, const void* data, size_t len);

}  // namespace zombie

#endif  // ZOMBIE_UTIL_CRC32_H_
