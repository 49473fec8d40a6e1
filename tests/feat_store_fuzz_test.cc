// Seeded corruption fuzz for PersistentFeatureStore: open and lookup over
// damaged files. Each iteration starts from the bytes of one healthy
// store, damages them — flipped bits inside the CRC-covered record bodies,
// a truncated file, chain links and bucket heads pointed out of range, at
// themselves or at newer records (cycles) — and reopens the file as a
// writer or as a reader. The contract under test: Open succeeds, and every
// Lookup returns the entry that was written, bit for bit, or misses.
// Nothing may crash or hang (a chain cycle that a lookup followed forever
// would trip the ctest timeout).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "featureeng/persistent_feature_store.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace zombie {
namespace {

constexpr uint64_t kFpA = 0x1111222233334444ull;
constexpr uint64_t kFpB = 0xaaaabbbbccccddddull;
constexpr uint32_t kDocs = 48;
constexpr uint64_t kBuckets = 16;  // long chains: many links to damage
// File layout constants (persistent_feature_store.h): a 64-byte header,
// then one u64 head per bucket, then the record arena.
constexpr uint64_t kHeaderSize = 64;
constexpr uint64_t kArenaOffset = kHeaderSize + kBuckets * 8;

std::string StorePath(const std::string& name) {
  std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  return path;
}

// Varying nnz (0 included) so records differ in size and alignment pad.
FeatureCache::Entry MakeEntry(uint32_t i) {
  FeatureCache::Entry e;
  const uint32_t nnz = i % 9;
  for (uint32_t k = 0; k < nnz; ++k) {
    e.features.PushBack(i * 3 + k * 11, 0.5 + static_cast<double>(i) * 0.125 -
                                            static_cast<double>(k));
  }
  e.label = static_cast<int32_t>(i % 2);
  e.cost_micros = 5000 + static_cast<int64_t>(i) * 3;
  return e;
}

bool BitEqual(const FeatureCache::Entry& got, const FeatureCache::Entry& want) {
  const SparseVector& a = got.features;
  const SparseVector& b = want.features;
  if (a.indices() != b.indices() || got.label != want.label ||
      got.cost_micros != want.cost_micros) {
    return false;
  }
  for (size_t i = 0; i < a.num_nonzero(); ++i) {
    const double x = a.value_at(i);
    const double y = b.value_at(i);
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  return true;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

uint32_t LoadU32(const std::vector<uint8_t>& b, uint64_t at) {
  uint32_t v;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

void StoreU64(std::vector<uint8_t>* b, uint64_t at, uint64_t v) {
  std::memcpy(b->data() + at, &v, sizeof(v));
}

struct Record {
  uint64_t offset;       // record start: crc u32, payload_len u32
  uint64_t payload_len;  // payload: next u64, then the CRC-covered body
};

// The records of a healthy file, in append order.
std::vector<Record> ParseRecords(const std::vector<uint8_t>& bytes,
                                 uint64_t arena_used) {
  std::vector<Record> records;
  for (uint64_t off = kArenaOffset; off + 8 <= arena_used;) {
    const uint64_t len = LoadU32(bytes, off + 4);
    records.push_back({off, len});
    off += 8 + len;
  }
  return records;
}

// Flips 1-4 random bits inside one random record's CRC-covered body.
void FlipBodyBits(const std::vector<Record>& records, Rng* rng,
                  std::vector<uint8_t>* bytes) {
  const Record& r = records[rng->NextBelow(records.size())];
  const uint64_t body = r.offset + 16;  // past crc, len and the next link
  const uint64_t body_len = r.payload_len - 8;
  const uint64_t flips = 1 + rng->NextBelow(4);
  for (uint64_t f = 0; f < flips; ++f) {
    const uint64_t bit = rng->NextBelow(body_len * 8);
    (*bytes)[body + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

// Repoints one chain link or bucket head: past the file, at an unaligned
// or in-header offset, at its own record, or at a newer record.
void CorruptLink(const std::vector<Record>& records, Rng* rng,
                 std::vector<uint8_t>* bytes) {
  const bool head = rng->NextBernoulli(0.3);
  const size_t victim = rng->NextBelow(records.size());
  const uint64_t at = head ? kHeaderSize + 8 * rng->NextBelow(kBuckets)
                           : records[victim].offset + 8;
  uint64_t target = 0;
  switch (rng->NextBelow(5)) {
    case 0:
      target = bytes->size() + 8 * rng->NextBelow(1000);
      break;
    case 1:
      target = records[victim].offset + 4;
      break;
    case 2:
      target = 8 * rng->NextBelow(kArenaOffset / 8);
      break;
    case 3:
      target = records[victim].offset;  // a self-loop
      break;
    default:
      target = records[rng->NextBelow(records.size())].offset;
      break;
  }
  StoreU64(bytes, at, target);
}

TEST(PersistentFeatureStoreFuzzTest, DamagedFilesServeOriginalsOrMiss) {
  const std::string path = StorePath("fuzz.zfs");
  PersistentFeatureStoreOptions opts;
  opts.num_buckets = kBuckets;
  uint64_t arena_used = 0;
  {
    auto store = PersistentFeatureStore::Open(path, opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (uint32_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE(store.value()->Append(kFpA, i, MakeEntry(i)));
      ASSERT_TRUE(store.value()->Append(kFpB, i, MakeEntry(i + 500)));
    }
  }
  const std::vector<uint8_t> healthy = ReadFile(path);
  ASSERT_GE(healthy.size(), kArenaOffset);
  std::memcpy(&arena_used, healthy.data() + 24, sizeof(arena_used));
  const std::vector<Record> records = ParseRecords(healthy, arena_used);
  ASSERT_EQ(records.size(), 2u * kDocs);

  constexpr int kIterations = 240;
  uint64_t corrupt_seen = 0;
  uint64_t hits_seen = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE(iter);
    Rng rng(0xF022 + static_cast<uint64_t>(iter));
    std::vector<uint8_t> bytes = healthy;
    const int kind = iter % 4;
    if (kind == 0 || kind == 3) {
      const uint64_t rounds = 1 + rng.NextBelow(3);
      for (uint64_t r = 0; r < rounds; ++r) FlipBodyBits(records, &rng, &bytes);
    }
    if (kind == 2 || kind == 3) {
      const uint64_t rounds = 1 + rng.NextBelow(3);
      for (uint64_t r = 0; r < rounds; ++r) CorruptLink(records, &rng, &bytes);
    }
    if (kind == 1 || (kind == 3 && rng.NextBernoulli(0.5))) {
      bytes.resize(rng.NextBelow(bytes.size() + 1));
    }
    std::remove((path + ".lock").c_str());
    WriteFile(path, bytes);

    PersistentFeatureStoreOptions open_opts = opts;
    open_opts.read_only = (iter / 4) % 2 == 1;
    auto store = PersistentFeatureStore::Open(path, open_opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (uint32_t i = 0; i < kDocs; ++i) {
      for (uint64_t fp : {kFpA, kFpB}) {
        if (auto hit = store.value()->Lookup(fp, i)) {
          const FeatureCache::Entry want =
              MakeEntry(fp == kFpA ? i : i + 500);
          ASSERT_TRUE(BitEqual(*hit, want)) << "fp " << fp << " doc " << i;
          ++hits_seen;
        }
      }
      // A fingerprint nobody wrote walks whole chains and must miss.
      ASSERT_FALSE(store.value()->Lookup(0x5eed, i).has_value());
    }
    corrupt_seen += store.value()->Stats().corrupt_skipped;
  }
  // The damage must actually have been seen, and much must have survived.
  EXPECT_GT(corrupt_seen, static_cast<uint64_t>(kIterations / 2));
  EXPECT_GT(hits_seen, static_cast<uint64_t>(kIterations) * kDocs / 2);
}

// The healthy file itself: every record verifies and is served.
TEST(PersistentFeatureStoreFuzzTest, HealthyFileServesEverything) {
  const std::string path = StorePath("fuzz_healthy.zfs");
  PersistentFeatureStoreOptions opts;
  opts.num_buckets = kBuckets;
  {
    auto store = PersistentFeatureStore::Open(path, opts);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE(store.value()->Append(kFpA, i, MakeEntry(i)));
    }
  }
  auto store = PersistentFeatureStore::Open(path, opts);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->Stats().corrupt_skipped, 0u);
  EXPECT_EQ(store.value()->Stats().recovered, kDocs);
  for (uint32_t i = 0; i < kDocs; ++i) {
    auto hit = store.value()->Lookup(kFpA, i);
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_TRUE(BitEqual(*hit, MakeEntry(i))) << i;
  }
}

}  // namespace
}  // namespace zombie
