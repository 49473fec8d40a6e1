#ifndef ZOMBIE_UTIL_CRC32_H_
#define ZOMBIE_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace zombie {

/// CRC-32 as zlib and gzip compute it: reflected polynomial 0xEDB88320,
/// initial value and final xor 0xFFFFFFFF. Crc32("123456789", 9) is
/// 0xCBF43926 and the empty input gives 0.
///
/// Slicing-by-8: eight 256-entry tables (built at compile time) let each
/// step fold eight input bytes with eight independent lookups, instead of
/// the byte-at-a-time loop's chain of one dependent lookup per byte. Same
/// polynomial, same value for every input; only the speed differs.
uint32_t Crc32(const void* data, size_t len);

}  // namespace zombie

#endif  // ZOMBIE_UTIL_CRC32_H_
