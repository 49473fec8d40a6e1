// CRC-32 (util/crc32.h): known answers for the zlib/gzip flavour, and a
// differential check of every body — Crc32 at this process's level
// (ZOMBIE_SIMD_LEVEL forces it), slicing-by-8 alone, and each available
// level's carry-less fold — against the bit-at-a-time definition at every
// length up to 4200 bytes and every start alignment, so the 8-byte step,
// the 64-byte fold, the 16-byte fold tail, the byte tail and any
// misaligned load all meet the reference.

#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ml/simd/simd_level.h"
#include "ml/simd/sparse_kernels.h"
#include "util/random.h"

namespace zombie {
namespace {

// The polynomial division itself, one bit at a time: no tables to share a
// mistake with the code under test. Returns the CRC of every prefix of
// data[0, len), so one pass serves all lengths.
std::vector<uint32_t> BitwisePrefixCrcs(const uint8_t* data, size_t len) {
  std::vector<uint32_t> out;
  uint32_t crc = 0xFFFFFFFFu;
  out.push_back(crc ^ 0xFFFFFFFFu);
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    out.push_back(crc ^ 0xFFFFFFFFu);
  }
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog", 43),
            0x414FA339u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  using Body = std::function<uint32_t(const uint8_t*, size_t)>;
  std::vector<std::pair<std::string, Body>> bodies = {
      {"Crc32", [](const uint8_t* p, size_t n) { return Crc32(p, n); }},
      {"slicing-by-8",
       [](const uint8_t* p, size_t n) { return Crc32WithFold(nullptr, p, n); }},
  };
  for (simd::SimdLevel level : simd::AvailableLevels()) {
    const simd::Crc32FoldFn fold = simd::KernelsForLevel(level)->crc32_fold;
    if (fold == nullptr) continue;
    bodies.emplace_back(
        std::string("fold at ") + simd::SimdLevelName(level),
        [fold](const uint8_t* p, size_t n) {
          return Crc32WithFold(fold, p, n);
        });
  }
  constexpr size_t kMaxLen = 4200;
  constexpr size_t kAlignments = 8;
  Rng rng(0xC4C32);
  std::vector<uint8_t> buffer(kMaxLen + kAlignments);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextUint64());
  for (size_t align = 0; align < kAlignments; ++align) {
    const uint8_t* data = buffer.data() + align;
    const std::vector<uint32_t> want = BitwisePrefixCrcs(data, kMaxLen);
    for (const auto& [name, body] : bodies) {
      for (size_t len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(body(data, len), want[len])
            << name << " len=" << len << " align=" << align;
      }
    }
  }
}

TEST(Crc32Test, DetectsEverySingleBitFlip) {
  std::vector<uint8_t> record(3700);
  Rng rng(5);
  for (uint8_t& b : record) b = static_cast<uint8_t>(rng.NextUint64());
  const uint32_t clean = Crc32(record.data(), record.size());
  for (size_t bit = 0; bit < record.size() * 8; bit += 37) {
    record[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(record.data(), record.size()), clean) << "bit " << bit;
    record[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

}  // namespace
}  // namespace zombie
