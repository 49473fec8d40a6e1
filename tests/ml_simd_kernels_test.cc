// Differential tests for the runtime ISA dispatch layer (ml/simd/): every
// compiled-and-runnable kernel table must be *bit-identical* to the scalar
// reference — same FP additions, same operands, same order — on adversarial
// index patterns and on seeded random CSR rows across nnz/overlap regimes.
// Plus unit tests for the SimdLevel parse/probe/resolution rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "index/kmeans.h"
#include "ml/simd/simd_level.h"
#include "ml/simd/sparse_kernels.h"
#include "ml/simd/sparse_kernels_scalar.h"
#include "ml/sparse_vector.h"
#include "util/random.h"
#include "util/string_util.h"

namespace zombie {
namespace {

using simd::SimdLevel;
using simd::SparseKernels;

// Raw result bits: EXPECT_EQ on these is exact bit equality, which is the
// contract (EXPECT_DOUBLE_EQ would tolerate ULP drift and also treat
// -0.0 == +0.0).
uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Sparse operand as parallel raw arrays, buildable from arbitrary sorted
// index sets (including UINT32_MAX, which SparseVector supports too).
struct Row {
  std::vector<uint32_t> idx;
  std::vector<double> val;

  size_t n() const { return idx.size(); }
  const uint32_t* ip() const { return idx.data(); }
  const double* vp() const { return val.data(); }
};

Row MakeRow(std::vector<uint32_t> indices, Rng* rng) {
  Row r;
  r.idx = std::move(indices);
  r.val.reserve(r.idx.size());
  for (size_t i = 0; i < r.idx.size(); ++i) {
    // Mix magnitudes and signs so accumulation-order bugs actually move
    // result bits (uniform same-scale values can round identically under
    // benign reorderings and mask a violation).
    r.val.push_back(rng->NextGaussian() * (1.0 + 1e6 * rng->NextDouble()));
  }
  return r;
}

// Random strictly-increasing indices: `n` draws without replacement from
// [lo, hi], sorted.
std::vector<uint32_t> RandomIndices(size_t n, uint32_t lo, uint32_t hi,
                                    Rng* rng) {
  std::vector<uint32_t> out;
  out.reserve(n);
  uint64_t span = static_cast<uint64_t>(hi) - lo + 1;
  while (out.size() < n) {
    out.push_back(lo + static_cast<uint32_t>(rng->NextBelow(span)));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

// Runs dot_sparse_sparse from `table` against the scalar reference on one
// operand pair and asserts bit equality of the result.
void ExpectBitIdentical(const SparseKernels& table, const Row& a,
                        const Row& b, const std::string& label) {
  SCOPED_TRACE(label);
  const double got =
      table.dot_sparse_sparse(a.ip(), a.vp(), a.n(), b.ip(), b.vp(), b.n());
  const double want = simd::ScalarDotSparseSparse(a.ip(), a.vp(), a.n(),
                                                  b.ip(), b.vp(), b.n());
  EXPECT_EQ(Bits(got), Bits(want)) << "dot_sparse_sparse " << got << " vs "
                                   << want;
}

// --- SimdLevel parse/probe/resolution ---------------------------------------

TEST(SimdLevelTest, ParseAcceptsCanonicalNames) {
  EXPECT_EQ(simd::ParseSimdLevel("scalar").value(), SimdLevel::kScalar);
  EXPECT_EQ(simd::ParseSimdLevel("avx2").value(), SimdLevel::kAvx2);
  EXPECT_EQ(simd::ParseSimdLevel("avx512").value(), SimdLevel::kAvx512);
}

TEST(SimdLevelTest, ParseRejectsAnythingElse) {
  for (const char* bad : {"", "AVX2", "avx-512", "sse4.2", "native", "2"}) {
    StatusOr<SimdLevel> r = simd::ParseSimdLevel(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(SimdLevelTest, NameRoundTrips) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    EXPECT_EQ(simd::ParseSimdLevel(simd::SimdLevelName(level)).value(), level);
  }
}

TEST(SimdLevelTest, ResolutionClampsToDetectedAndCompiled) {
  // No override: min(detected, compiled).
  EXPECT_EQ(simd::ComputeActiveSimdLevel(nullptr, SimdLevel::kAvx512,
                                         SimdLevel::kAvx2)
                .value(),
            SimdLevel::kAvx2);
  EXPECT_EQ(simd::ComputeActiveSimdLevel(nullptr, SimdLevel::kScalar,
                                         SimdLevel::kAvx512)
                .value(),
            SimdLevel::kScalar);
}

TEST(SimdLevelTest, ForcingDownIsHonored) {
  EXPECT_EQ(simd::ComputeActiveSimdLevel("scalar", SimdLevel::kAvx512,
                                         SimdLevel::kAvx512)
                .value(),
            SimdLevel::kScalar);
  EXPECT_EQ(simd::ComputeActiveSimdLevel("avx2", SimdLevel::kAvx512,
                                         SimdLevel::kAvx512)
                .value(),
            SimdLevel::kAvx2);
}

TEST(SimdLevelTest, ForcingAboveCpuOrBinaryDowngrades) {
  // CPU lacks the level: downgrade, never execute illegal opcodes.
  EXPECT_EQ(simd::ComputeActiveSimdLevel("avx512", SimdLevel::kAvx2,
                                         SimdLevel::kAvx512)
                .value(),
            SimdLevel::kAvx2);
  // Binary lacks the level (built with ZOMBIE_SIMD=OFF): same.
  EXPECT_EQ(simd::ComputeActiveSimdLevel("avx2", SimdLevel::kAvx512,
                                         SimdLevel::kScalar)
                .value(),
            SimdLevel::kScalar);
}

TEST(SimdLevelTest, MalformedOverrideIsAnError) {
  StatusOr<SimdLevel> r = simd::ComputeActiveSimdLevel(
      "avx1024", SimdLevel::kAvx512, SimdLevel::kAvx512);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimdLevelTest, ProbeAndTablesAreConsistent) {
  // Can't assert what the CPU supports, but the invariants must hold:
  // scalar is always available, levels ascend, every available level has a
  // compiled table, and the active level is within them.
  const std::vector<SimdLevel> levels = simd::AvailableLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(levels[i - 1], levels[i]);
    EXPECT_LE(levels[i], simd::DetectCpuSimdLevel());
    EXPECT_LE(levels[i], simd::CompiledSimdLevel());
  }
  for (SimdLevel level : levels) {
    EXPECT_NE(simd::KernelsForLevel(level), nullptr);
  }
  EXPECT_LE(simd::ActiveSimdLevel(), simd::DetectCpuSimdLevel());
  EXPECT_LE(simd::ActiveSimdLevel(), simd::CompiledSimdLevel());
  EXPECT_NE(simd::KernelsForLevel(simd::ActiveSimdLevel()), nullptr);
}

// --- Adversarial fixed patterns ---------------------------------------------

class SimdKernelsTest : public ::testing::Test {
 protected:
  // Every test body runs once per available level; the scalar row of the
  // matrix doubles as a self-check of the harness.
  void ForEachLevel(const Row& a, const Row& b, const std::string& label) {
    for (SimdLevel level : simd::AvailableLevels()) {
      ExpectBitIdentical(*simd::KernelsForLevel(level), a, b,
                         label + " @ " + simd::SimdLevelName(level));
    }
  }
};

TEST_F(SimdKernelsTest, SingleEntry) {
  // Empty operands never reach the table: the Dot wrapper returns 0 first.
  Rng rng(1);
  const Row one = MakeRow({42}, &rng);
  const Row other = MakeRow({43}, &rng);
  ForEachLevel(one, one, "one/one");
  ForEachLevel(one, other, "one/other");
}

TEST_F(SimdKernelsTest, SingleRunDisjointRanges) {
  // All of a's indices strictly below all of b's: one maximal mismatch run
  // each way, no matches — the pure AdvanceTo path.
  Rng rng(2);
  const Row a = MakeRow(RandomIndices(100, 0, 999, &rng), &rng);
  const Row b = MakeRow(RandomIndices(100, 1000, 1999, &rng), &rng);
  ForEachLevel(a, b, "disjoint low/high");
  ForEachLevel(b, a, "disjoint high/low");
}

TEST_F(SimdKernelsTest, DenseOverlapIdenticalIndexSets) {
  // Every index matches: the pure match path, zero-length runs between
  // matches (exercises the vector loop's "first lane already >= bound"
  // early out).
  Rng rng(3);
  std::vector<uint32_t> shared = RandomIndices(257, 0, 4095, &rng);
  const Row a = MakeRow(shared, &rng);
  const Row b = MakeRow(shared, &rng);
  ForEachLevel(a, b, "identical index sets");
  ForEachLevel(a, a, "self");
}

TEST_F(SimdKernelsTest, InterleavedAlternatingIndices) {
  // a gets evens, b gets odds: maximal alternation, run length 1
  // throughout — worst case for vectorized scanning, must still be exact.
  Rng rng(4);
  std::vector<uint32_t> evens;
  std::vector<uint32_t> odds;
  for (uint32_t i = 0; i < 300; ++i) {
    (i % 2 == 0 ? evens : odds).push_back(i);
  }
  const Row a = MakeRow(std::move(evens), &rng);
  const Row b = MakeRow(std::move(odds), &rng);
  ForEachLevel(a, b, "alternating");
}

TEST_F(SimdKernelsTest, Uint32MaxAdjacentIndices) {
  // Indices straddling both the signed-compare boundary (2^31) and the top
  // of the index space: catches any signed/unsigned confusion in vector
  // compares (AVX2 has no unsigned epi32 compare and must bias by the sign
  // bit).
  Rng rng(5);
  std::vector<uint32_t> high = {0x7ffffffdu, 0x7ffffffeu, 0x7fffffffu,
                                0x80000000u, 0x80000001u, 0xfffffff0u,
                                UINT32_MAX - 1, UINT32_MAX};
  std::vector<uint32_t> mixed = {0u,          5u,          0x7fffffffu,
                                 0x80000000u, 0xfffffff0u, UINT32_MAX};
  const Row a = MakeRow(high, &rng);
  const Row b = MakeRow(mixed, &rng);
  ForEachLevel(a, b, "uint32-max adjacent");
  // Long rows around the boundary so the vector loops actually engage.
  const Row c = MakeRow(RandomIndices(200, 0x7fffff00u, 0x800000ffu, &rng),
                        &rng);
  const Row d = MakeRow(RandomIndices(200, 0x7fffff80u, 0x8000017fu, &rng),
                        &rng);
  ForEachLevel(c, d, "boundary-straddling runs");
  const Row e = MakeRow(RandomIndices(64, UINT32_MAX - 255, UINT32_MAX, &rng),
                        &rng);
  ForEachLevel(e, e, "top-of-range self");
  ForEachLevel(a, e, "high vs top-of-range");
}

TEST_F(SimdKernelsTest, DuplicateFreeCsrRowsFromDataset) {
  // Rows as the production pipeline makes them: FromPairs output (sorted,
  // duplicate-merged, zeros dropped).
  Rng rng(6);
  std::vector<std::pair<uint32_t, double>> pa;
  std::vector<std::pair<uint32_t, double>> pb;
  for (int i = 0; i < 400; ++i) {
    pa.emplace_back(static_cast<uint32_t>(rng.NextBelow(8192)),
                    rng.NextGaussian());
    pb.emplace_back(static_cast<uint32_t>(rng.NextBelow(8192)),
                    rng.NextGaussian());
  }
  const SparseVector va = SparseVector::FromPairs(pa);
  const SparseVector vb = SparseVector::FromPairs(pb);
  Row a{va.indices(), va.values()};
  Row b{vb.indices(), vb.values()};
  ForEachLevel(a, b, "csr rows");
}

// --- RemapSparseView (pruning compaction) -----------------------------------

// Monotone old-id→dense-id table: each id is kept with probability
// `keep_fraction`, kept ids numbered densely in order (the shape
// FeaturePruner freezes).
std::vector<uint32_t> MakeRemapTable(size_t size, double keep_fraction,
                                     Rng* rng) {
  std::vector<uint32_t> remap(size, simd::kPrunedFeature);
  uint32_t next = 0;
  for (size_t f = 0; f < size; ++f) {
    if (rng->NextDouble() < keep_fraction) remap[f] = next++;
  }
  return remap;
}

// Runs every available level's remap_sparse_view against the scalar
// reference — out-of-place and in-place — and asserts the identical kept
// sequence (indices equal, value bits equal). Pure data movement, so exact
// equality is the whole contract.
void ExpectRemapBitIdentical(const Row& a, const std::vector<uint32_t>& remap,
                             const std::string& label) {
  SCOPED_TRACE(label);
  std::vector<uint32_t> want_idx(a.n());
  std::vector<double> want_val(a.n());
  const size_t want_n = simd::ScalarRemapSparseView(
      a.ip(), a.vp(), a.n(), remap.data(), remap.size(), want_idx.data(),
      want_val.data());
  ASSERT_LE(want_n, a.n());
  for (SimdLevel level : simd::AvailableLevels()) {
    SCOPED_TRACE(simd::SimdLevelName(level));
    const SparseKernels& table = *simd::KernelsForLevel(level);
    // Poisoned out buffers catch writes past the kept count.
    std::vector<uint32_t> got_idx(a.n(), 0xdeadbeefu);
    std::vector<double> got_val(a.n(), -12345.0);
    const size_t got_n =
        table.remap_sparse_view(a.ip(), a.vp(), a.n(), remap.data(),
                                remap.size(), got_idx.data(), got_val.data());
    ASSERT_EQ(got_n, want_n);
    for (size_t i = 0; i < got_n; ++i) {
      ASSERT_EQ(got_idx[i], want_idx[i]) << "index slot " << i;
      ASSERT_EQ(Bits(got_val[i]), Bits(want_val[i])) << "value slot " << i;
    }
    // In-place (out aliasing in) is part of the kernel contract: the write
    // cursor must never pass the read cursor.
    std::vector<uint32_t> inplace_idx = a.idx;
    std::vector<double> inplace_val = a.val;
    const size_t inplace_n = table.remap_sparse_view(
        inplace_idx.data(), inplace_val.data(), a.n(), remap.data(),
        remap.size(), inplace_idx.data(), inplace_val.data());
    ASSERT_EQ(inplace_n, want_n);
    for (size_t i = 0; i < inplace_n; ++i) {
      ASSERT_EQ(inplace_idx[i], want_idx[i]) << "in-place index slot " << i;
      ASSERT_EQ(Bits(inplace_val[i]), Bits(want_val[i]))
          << "in-place value slot " << i;
    }
  }
}

TEST_F(SimdKernelsTest, RemapAdversarialPatterns) {
  Rng rng(11);
  const size_t kDim = 512;
  std::vector<uint32_t> keep_all = MakeRemapTable(kDim, 1.0, &rng);
  std::vector<uint32_t> drop_all = MakeRemapTable(kDim, 0.0, &rng);
  std::vector<uint32_t> half = MakeRemapTable(kDim, 0.5, &rng);
  // Alternating keep/prune: run length 1 throughout, the worst case for
  // any vectorized left-pack.
  std::vector<uint32_t> alternating(kDim, simd::kPrunedFeature);
  uint32_t next = 0;
  for (size_t f = 0; f < kDim; f += 2) alternating[f] = next++;

  const Row empty;
  ExpectRemapBitIdentical(empty, half, "empty row");
  const Row one = MakeRow({17}, &rng);
  ExpectRemapBitIdentical(one, keep_all, "single kept");
  ExpectRemapBitIdentical(one, drop_all, "single pruned");
  const Row row = MakeRow(RandomIndices(100, 0, kDim - 1, &rng), &rng);
  ExpectRemapBitIdentical(row, keep_all, "keep everything");
  ExpectRemapBitIdentical(row, drop_all, "prune everything");
  ExpectRemapBitIdentical(row, half, "half pruned");
  ExpectRemapBitIdentical(row, alternating, "alternating keep/prune");
  // Indices at and past remap_size form a droppable suffix; straddle the
  // boundary so the sorted-suffix cutoff is exercised in the lane loops.
  const Row straddling =
      MakeRow(RandomIndices(64, kDim - 32, kDim + 31, &rng), &rng);
  ExpectRemapBitIdentical(straddling, half, "ids straddling table size");
  const Row beyond = MakeRow({kDim, kDim + 1, 4096, UINT32_MAX}, &rng);
  ExpectRemapBitIdentical(beyond, half, "all ids out of range");
}

TEST_F(SimdKernelsTest, RemapDifferentialFuzz) {
  // nnz around the 8/16-lane widths x keep fractions from drop-all to
  // keep-all, on tables sized to force both in-range and suffix paths.
  Rng rng(20260812);
  const size_t kDim = 4096;
  for (double keep : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    std::vector<uint32_t> remap = MakeRemapTable(kDim, keep, &rng);
    for (size_t nnz : {1u, 7u, 8u, 15u, 16u, 31u, 63u, 64u, 128u, 300u}) {
      for (int rep = 0; rep < 6; ++rep) {
        const Row a = MakeRow(
            RandomIndices(nnz, 0, static_cast<uint32_t>(kDim) + 63, &rng),
            &rng);
        ExpectRemapBitIdentical(
            a, remap, StrFormat("fuzz keep=%.1f nnz=%zu rep=%d", keep, nnz,
                                rep));
      }
    }
  }
}

TEST_F(SimdKernelsTest, RemapThroughWrapperCompactsInPlace) {
  // End-to-end through SparseVector::RemapThrough at the active level:
  // same kept sequence as the scalar reference, vector invariants intact.
  Rng rng(13);
  const size_t kDim = 1024;
  std::vector<uint32_t> remap = MakeRemapTable(kDim, 0.5, &rng);
  for (size_t nnz : {1u, 16u, 100u, 400u}) {
    const Row a = MakeRow(
        RandomIndices(nnz, 0, static_cast<uint32_t>(kDim) - 1, &rng), &rng);
    std::vector<uint32_t> want_idx(a.n());
    std::vector<double> want_val(a.n());
    const size_t want_n = simd::ScalarRemapSparseView(
        a.ip(), a.vp(), a.n(), remap.data(), remap.size(), want_idx.data(),
        want_val.data());
    SparseVector v;
    for (size_t i = 0; i < a.n(); ++i) v.PushBack(a.idx[i], a.val[i]);
    v.RemapThrough(remap.data(), remap.size());
    ASSERT_EQ(v.num_nonzero(), want_n);
    for (size_t i = 0; i < want_n; ++i) {
      ASSERT_EQ(v.indices()[i], want_idx[i]) << "slot " << i;
      ASSERT_EQ(Bits(v.values()[i]), Bits(want_val[i])) << "slot " << i;
    }
  }
}

// --- Seeded randomized differential fuzz ------------------------------------

TEST_F(SimdKernelsTest, DifferentialFuzzAcrossRegimes) {
  // (nnz_a, nnz_b, index range) regimes: tiny rows, tail remainders around
  // the 8/16-lane widths, unbalanced sides (one long AdvanceTo scan),
  // near-dense overlap, and sparse production-like rows.
  struct Regime {
    size_t na;
    size_t nb;
    uint32_t hi;
  };
  const Regime regimes[] = {
      {1, 1, 64},       {3, 5, 64},        {7, 9, 128},     {8, 8, 64},
      {15, 17, 256},    {16, 16, 128},     {31, 33, 512},   {100, 3, 4096},
      {3, 100, 4096},   {128, 128, 8192},  {128, 128, 256}, {500, 500, 600},
      {512, 64, 65536}, {64, 512, 65536},
  };
  Rng rng(20260808);
  for (const Regime& regime : regimes) {
    for (int rep = 0; rep < 12; ++rep) {
      const Row a =
          MakeRow(RandomIndices(regime.na, 0, regime.hi - 1, &rng), &rng);
      const Row b =
          MakeRow(RandomIndices(regime.nb, 0, regime.hi - 1, &rng), &rng);
      ForEachLevel(a, b,
                   StrFormat("fuzz na=%zu nb=%zu hi=%u rep=%d", regime.na,
                             regime.nb, regime.hi, rep));
    }
  }
}

// --- Dense point-to-lanes distance (the index's kernel) ----------------------

// Values that stress rounding: mixed signs and binades, signed zeros,
// subnormals, and magnitudes whose squares approach or pass overflow.
double AdversarialValue(Rng* rng) {
  switch (rng->NextBelow(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return (rng->NextBelow(2) == 0 ? 1.0 : -1.0) *
             std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng->NextBelow(1000));
    case 3:
      return rng->NextGaussian() * 1e153;
    case 4:
      return rng->NextGaussian() * 1e-160;
    default:
      return rng->NextGaussian() * (1.0 + 1e6 * rng->NextDouble());
  }
}

// SquaredL2Block at `level` on `num_points` points must equal
// num_points * 8 SquaredL2 calls bit for bit.
void ExpectBlockMatchesSquaredL2(const SparseKernels& table, size_t dim,
                                 size_t num_points, Rng* rng,
                                 const std::string& label) {
  SCOPED_TRACE(label + " dim=" + std::to_string(dim) +
               " points=" + std::to_string(num_points));
  constexpr size_t kLanes = simd::kDistanceLanes;
  std::vector<std::vector<double>> points(num_points,
                                          std::vector<double>(dim));
  for (auto& p : points) {
    for (double& v : p) v = AdversarialValue(rng);
  }
  std::vector<std::vector<double>> vecs(kLanes, std::vector<double>(dim));
  for (auto& v : vecs) {
    for (double& x : v) x = AdversarialValue(rng);
  }
  // Lanes equal to a point give exact-zero differences of either sign.
  if (dim > 0) vecs[3] = points[num_points - 1];
  std::vector<double> flat;
  for (const auto& p : points) flat.insert(flat.end(), p.begin(), p.end());
  std::vector<double> lanes(dim * kLanes);
  for (size_t d = 0; d < dim; ++d) {
    for (size_t l = 0; l < kLanes; ++l) lanes[d * kLanes + l] = vecs[l][d];
  }
  // One slot past the block must stay untouched.
  std::vector<double> got(num_points * kLanes + 1);
  std::memset(got.data(), 0xA5, got.size() * sizeof(double));
  const double sentinel = got.back();
  std::vector<double> want(num_points * kLanes);
  table.squared_l2_block(flat.data(), num_points, lanes.data(), dim,
                         got.data());
  for (size_t p = 0; p < num_points; ++p) {
    for (size_t l = 0; l < kLanes; ++l) {
      want[p * kLanes + l] = SquaredL2(points[p], vecs[l]);
    }
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(double)),
            0)
      << [&] {
           std::string msg;
           for (size_t i = 0; i < want.size(); ++i) {
             msg += StrFormat("point %zu lane %zu: %a vs %a\n", i / kLanes,
                              i % kLanes, got[i], want[i]);
           }
           return msg;
         }();
  EXPECT_EQ(Bits(got.back()), Bits(sentinel));
}

TEST_F(SimdKernelsTest, SquaredL2BlockMatchesScalarSquaredL2) {
  Rng rng(2024);
  for (SimdLevel level : simd::AvailableLevels()) {
    const SparseKernels& table = *simd::KernelsForLevel(level);
    for (size_t dim = 0; dim <= 129; ++dim) {
      for (size_t points = 1; points <= simd::kDistanceLanes; ++points) {
        for (int rep = 0; rep < 2; ++rep) {
          ExpectBlockMatchesSquaredL2(table, dim, points, &rng,
                                      simd::SimdLevelName(level));
        }
      }
    }
  }
}

// --- Dispatched wrappers ----------------------------------------------------

TEST_F(SimdKernelsTest, WrapperMatchesScalarKernelsAtActiveLevel) {
  // End-to-end through both SparseVectorView::Dot overloads at whatever
  // level this process resolved (native, or forced via ZOMBIE_SIMD_LEVEL by
  // the CI matrix): results must equal the scalar kernels bit-for-bit,
  // dispatch hop, small-n short-circuit and cutoff logic included.
  Rng rng(7);
  for (size_t nnz : {1u, 8u, 15u, 16u, 64u, 300u}) {
    const Row a = MakeRow(RandomIndices(nnz, 0, 2047, &rng), &rng);
    const Row b = MakeRow(RandomIndices(nnz, 0, 2047, &rng), &rng);
    const SparseVectorView va(a.ip(), a.vp(), a.n());
    const SparseVectorView vb(b.ip(), b.vp(), b.n());

    EXPECT_EQ(Bits(va.Dot(vb)),
              Bits(simd::ScalarDotSparseSparse(a.ip(), a.vp(), a.n(), b.ip(),
                                               b.vp(), b.n())));

    std::vector<double> dense(1024);
    for (double& d : dense) d = rng.NextGaussian();
    // Wrapper clamps to indices < dense.size(); mirror it for the reference.
    const size_t limit = static_cast<size_t>(
        std::lower_bound(a.idx.begin(), a.idx.end(),
                         static_cast<uint32_t>(dense.size())) -
        a.idx.begin());
    EXPECT_EQ(Bits(va.Dot(dense)),
              Bits(simd::ScalarDotSparseDense(a.ip(), a.vp(), limit,
                                              dense.data())));
  }
}

}  // namespace
}  // namespace zombie
