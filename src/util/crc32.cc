#include "util/crc32.h"

#include <array>
#include <cstring>

namespace zombie {

namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the 8-byte step below loads words little-endian");

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// kTables[0] is the classic byte table; kTables[s][b] is the CRC of byte b
// followed by s zero bytes, so one lookup per table advances eight bytes.
constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t s = 1; s < 8; ++s) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kTables = MakeCrcTables();

// The table loop, from register `crc` (no pre- or post-inversion).
uint32_t Slicing8(uint32_t crc, const uint8_t* p, size_t len) {
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

// Shortest input the fold takes (its four 16-byte accumulators).
constexpr size_t kFoldMinBytes = 64;

}  // namespace

uint32_t Crc32WithFold(simd::Crc32FoldFn fold, const void* data,
                       size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  if (fold != nullptr && len >= kFoldMinBytes) {
    // The fold leaves a 16-byte remainder whose CRC from a zero register
    // is the register after the folded blocks.
    const size_t bulk = len & ~size_t{15};
    uint8_t remainder[16];
    fold(crc, p, bulk, remainder);
    crc = Slicing8(0, remainder, sizeof(remainder));
    p += bulk;
    len -= bulk;
  }
  return Slicing8(crc, p, len) ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t len) {
  static const simd::Crc32FoldFn fold = simd::ActiveKernels().crc32_fold;
  return Crc32WithFold(fold, data, len);
}

}  // namespace zombie
