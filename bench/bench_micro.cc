// E11 — substrate microbenchmarks (google-benchmark): the hot paths of the
// inner loop and the index build.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "bandit/ucb1.h"
#include "bench_common.h"
#include "core/task_factory.h"
#include "data/webcat_generator.h"
#include "featureeng/feature_cache.h"
#include "index/kmeans.h"
#include "index/kmeans_grouper.h"
#include "index/signature.h"
#include "ml/dataset.h"
#include "ml/feature_pruner.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/simd/simd_level.h"
#include "ml/simd/sparse_kernels.h"
#include "ml/sparse_vector.h"
#include "obs/decision_log.h"
#include "obs/json_util.h"
#include "obs/obs.h"
#include "text/term_counts.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace zombie {
namespace {

SparseVector RandomVector(Rng* rng, uint32_t dim, size_t nnz) {
  std::vector<std::pair<uint32_t, double>> pairs;
  pairs.reserve(nnz);
  for (size_t i = 0; i < nnz; ++i) {
    pairs.emplace_back(static_cast<uint32_t>(rng->NextBelow(dim)),
                       rng->NextGaussian());
  }
  return SparseVector::FromPairs(std::move(pairs));
}

// Vector-pair pool for the sparse-kernel benchmarks. Benchmarking one pair
// repeatedly lets the branch predictor memorize the entire merge sequence
// — a state production code never reaches, since the engine dots each
// incoming example against ever-changing model state. Cycling a pool of
// distinct pairs keeps per-element branch outcomes data-random, which is
// what the kernels actually face (and what separates the merge variants:
// the run-skipping Dot is ~1.6x faster than a three-way merge here, while
// they tie on a single memorized pair).
constexpr size_t kSparsePool = 64;

std::vector<SparseVector> RandomVectorPool(uint64_t seed, uint32_t dim,
                                           size_t nnz) {
  Rng rng(seed);
  std::vector<SparseVector> pool;
  pool.reserve(kSparsePool);
  for (size_t p = 0; p < kSparsePool; ++p) {
    pool.push_back(RandomVector(&rng, dim, nnz));
  }
  return pool;
}

void BM_SparseDotSparse(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  std::vector<SparseVector> as = RandomVectorPool(1, 8192, nnz);
  std::vector<SparseVector> bs = RandomVectorPool(101, 8192, nnz);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t p = 0; p < kSparsePool; ++p) acc += as[p].Dot(bs[p]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}
BENCHMARK(BM_SparseDotSparse)->Arg(32)->Arg(128)->Arg(512);

void BM_SparseDotDense(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  std::vector<SparseVector> as = RandomVectorPool(2, 8192, nnz);
  std::vector<double> dense(8192, 0.5);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t p = 0; p < kSparsePool; ++p) acc += as[p].Dot(dense);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}
BENCHMARK(BM_SparseDotDense)->Arg(32)->Arg(128)->Arg(512);

void BM_SparseFromPairs(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::pair<uint32_t, double>> pairs;
  for (int i = 0; i < state.range(0); ++i) {
    pairs.emplace_back(static_cast<uint32_t>(rng.NextBelow(8192)), 1.0);
  }
  for (auto _ : state) {
    auto copy = pairs;
    benchmark::DoNotOptimize(SparseVector::FromPairs(std::move(copy)));
  }
}
BENCHMARK(BM_SparseFromPairs)->Arg(128)->Arg(1024);

// --- Reference kernels: the pre-CSR scalar implementations, kept
// bench-local so the kernel-ratio metrics below always compare the shipped
// kernels against exactly what they replaced (same inputs, same FP
// semantics — ratios are pure codegen/layout, not algorithm changes).
// noinline pins the call boundary: the originals lived in sparse_vector.cc
// (a separate TU, no LTO) and were never inlined into call sites, so
// letting the bench TU inline+specialize them would flatter the reference.

__attribute__((noinline)) double RefDotSparse(const SparseVector& a,
                                              const SparseVector& b) {
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.num_nonzero() && j < b.num_nonzero()) {
    if (a.index_at(i) < b.index_at(j)) {
      ++i;
    } else if (a.index_at(i) > b.index_at(j)) {
      ++j;
    } else {
      sum += a.value_at(i) * b.value_at(j);
      ++i;
      ++j;
    }
  }
  return sum;
}

__attribute__((noinline)) double RefDotDense(const SparseVector& a,
                                             const std::vector<double>& dense) {
  double sum = 0.0;
  for (size_t i = 0; i < a.num_nonzero(); ++i) {
    if (a.index_at(i) >= dense.size()) break;
    sum += a.value_at(i) * dense[a.index_at(i)];
  }
  return sum;
}

void BM_RefSparseDotSparse(benchmark::State& state) {
  // Same seeds/sizes as BM_SparseDotSparse: identical inputs.
  const size_t nnz = static_cast<size_t>(state.range(0));
  std::vector<SparseVector> as = RandomVectorPool(1, 8192, nnz);
  std::vector<SparseVector> bs = RandomVectorPool(101, 8192, nnz);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t p = 0; p < kSparsePool; ++p) acc += RefDotSparse(as[p], bs[p]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}
BENCHMARK(BM_RefSparseDotSparse)->Arg(32)->Arg(128)->Arg(512);

void BM_RefSparseDotDense(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  std::vector<SparseVector> as = RandomVectorPool(2, 8192, nnz);
  std::vector<double> dense(8192, 0.5);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t p = 0; p < kSparsePool; ++p) acc += RefDotDense(as[p], dense);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}
BENCHMARK(BM_RefSparseDotDense)->Arg(32)->Arg(128)->Arg(512);

// --- Per-ISA kernel benches (runtime-registered) --------------------------
//
// One benchmark per (available SIMD level, kernel), calling the level's
// dispatch table directly on the same seeded pools as the wrapper benches
// above. All levels go through the same function-pointer indirection, so
// scalar-vs-AVX2-vs-AVX-512 walls isolate the kernel body; the per-ISA
// "ratio.<isa>.<kernel>" metrics (scalar wall / ISA wall, computed below)
// are machine-independent and gated in bench/baseline.json. Registered at
// runtime because which levels exist depends on the host cpuid.

void BM_SimdDotSparseSparse(benchmark::State& state,
                            const simd::SparseKernels* k, size_t nnz) {
  std::vector<SparseVector> as = RandomVectorPool(1, 8192, nnz);
  std::vector<SparseVector> bs = RandomVectorPool(101, 8192, nnz);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t p = 0; p < kSparsePool; ++p) {
      const SparseVector& a = as[p];
      const SparseVector& b = bs[p];
      acc += k->dot_sparse_sparse(a.indices().data(), a.values().data(),
                                  a.num_nonzero(), b.indices().data(),
                                  b.values().data(), b.num_nonzero());
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}

// Mid-run dimension compaction: remap + left-pack a pool of rows through a
// half-pruned 8192-wide table. Out-of-place so the seeded inputs survive
// across iterations (the kernel itself also permits in-place).
void BM_SimdRemapSparseView(benchmark::State& state,
                            const simd::SparseKernels* k, size_t nnz) {
  std::vector<SparseVector> as = RandomVectorPool(7, 8192, nnz);
  std::vector<uint32_t> remap(8192);
  Rng rng(77);
  uint32_t next = 0;
  for (size_t f = 0; f < remap.size(); ++f) {
    remap[f] = rng.NextBelow(2) == 0 ? simd::kPrunedFeature : next++;
  }
  std::vector<uint32_t> out_idx(nnz);
  std::vector<double> out_val(nnz);
  for (auto _ : state) {
    size_t kept = 0;
    for (size_t p = 0; p < kSparsePool; ++p) {
      const SparseVector& a = as[p];
      kept += k->remap_sparse_view(a.indices().data(), a.values().data(),
                                   a.num_nonzero(), remap.data(),
                                   remap.size(), out_idx.data(),
                                   out_val.data());
    }
    benchmark::DoNotOptimize(kept);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}

// Unbalanced merge: a document-sized row dotted against a centroid-sized
// row — the k-means shape, and the one run-skipping SIMD exists for
// (mismatch runs of ~20 on the dense side, retired 8/16 indices per vector
// compare; balanced same-density merges have runs of ~2, where the kernels
// fall back to their scalar probe and roughly tie).
void BM_SimdDotSparseSparseSkew(benchmark::State& state,
                                const simd::SparseKernels* k) {
  std::vector<SparseVector> docs = RandomVectorPool(1, 8192, 96);
  std::vector<SparseVector> centroids = RandomVectorPool(101, 8192, 2048);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t p = 0; p < kSparsePool; ++p) {
      const SparseVector& a = docs[p];
      const SparseVector& b = centroids[p];
      acc += k->dot_sparse_sparse(a.indices().data(), a.values().data(),
                                  a.num_nonzero(), b.indices().data(),
                                  b.values().data(), b.num_nonzero());
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}

// Kernels the per-ISA ratio metrics cover, in bench-name / metric-name form.
constexpr struct {
  const char* bench;
  const char* metric;
} kSimdKernelNames[] = {
    {"BM_SimdDotSparseSparse", "dot_sparse_sparse"},
    {"BM_SimdRemapSparseView", "remap_sparse_view"},
};
constexpr size_t kSimdBenchNnz = 128;  // matches the wrapper benches' gates

// One Lloyd assignment pass at the size of a WebCat session's index build:
// 12k signature-width rows against k = 32 centroids. "scalar" is the loop
// the index ran before the lane kernel (one SquaredL2 per row-centroid
// pair over row-major rows); "<isa>" is AssignToNearest, the pass RunKMeans
// runs, through that level's squared_l2_block entry. All produce identical
// assignments. "ratio.avx512.kmeans_block" is the avx2 wall over the
// avx512 wall: eight interleaved centroid chains against two.
constexpr size_t kAssignRows = 12000;
constexpr size_t kAssignDim = 128;
constexpr size_t kAssignK = 32;

struct AssignFixture {
  std::vector<double> flat_rows;  // row-major, for the scalar loop
  DenseMatrix rows;               // the same rows, tiled
  std::vector<double> centroids;  // k row-major rows
};

const AssignFixture& KMeansAssignFixture() {
  static const AssignFixture* fixture = [] {
    auto* f = new AssignFixture{std::vector<double>(kAssignRows * kAssignDim),
                                DenseMatrix(kAssignDim), {}};
    Rng rng(12);
    for (double& v : f->flat_rows) v = rng.NextGaussian();
    for (size_t i = 0; i < kAssignRows; ++i) {
      f->rows.AppendRow(f->flat_rows.data() + i * kAssignDim);
    }
    for (size_t c = 0; c < kAssignK; ++c) {
      const double* r =
          f->flat_rows.data() + rng.NextBelow(kAssignRows) * kAssignDim;
      f->centroids.insert(f->centroids.end(), r, r + kAssignDim);
    }
    return f;
  }();
  return *fixture;
}

void BM_KMeansAssignScalar(benchmark::State& state) {
  const AssignFixture& f = KMeansAssignFixture();
  for (auto _ : state) {
    size_t sum = 0;
    for (size_t i = 0; i < kAssignRows; ++i) {
      double best = std::numeric_limits<double>::max();
      size_t best_c = 0;
      for (size_t c = 0; c < kAssignK; ++c) {
        const double d =
            SquaredL2(f.flat_rows.data() + i * kAssignDim,
                      f.centroids.data() + c * kAssignDim, kAssignDim);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      sum += best_c;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAssignRows));
}

void BM_KMeansAssignBlock(benchmark::State& state,
                          const simd::SparseKernels* k) {
  const AssignFixture& f = KMeansAssignFixture();
  std::vector<uint32_t> assignments(kAssignRows, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignToNearest(k->squared_l2_block, f.rows,
                                             f.centroids.data(), kAssignK,
                                             &assignments));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAssignRows));
}

void BM_StoreCrc32Fold(benchmark::State& state, simd::Crc32FoldFn fold);

void RegisterPerIsaKernelBenches() {
  for (simd::SimdLevel level : simd::AvailableLevels()) {
    const simd::SparseKernels* k = simd::KernelsForLevel(level);
    const std::string ln = simd::SimdLevelName(level);
    auto name = [&ln](const char* bench, size_t nnz) {
      return std::string(bench) + "/" + ln + "/" + std::to_string(nnz);
    };
    benchmark::RegisterBenchmark(
        name("BM_SimdDotSparseSparse", kSimdBenchNnz).c_str(),
        BM_SimdDotSparseSparse, k, kSimdBenchNnz);
    // A denser regime too: shorter mismatch runs stress the scan early-out.
    benchmark::RegisterBenchmark(
        name("BM_SimdDotSparseSparse", 512).c_str(), BM_SimdDotSparseSparse,
        k, size_t{512});
    benchmark::RegisterBenchmark(
        name("BM_SimdRemapSparseView", kSimdBenchNnz).c_str(),
        BM_SimdRemapSparseView, k, kSimdBenchNnz);
    benchmark::RegisterBenchmark(
        ("BM_SimdDotSparseSparseSkew/" + ln).c_str(),
        BM_SimdDotSparseSparseSkew, k);
    if (level == simd::SimdLevel::kScalar) {
      benchmark::RegisterBenchmark("BM_KMeansAssign/scalar",
                                   BM_KMeansAssignScalar)
          ->Unit(benchmark::kMillisecond);
    } else {
      benchmark::RegisterBenchmark(("BM_KMeansAssign/" + ln).c_str(),
                                   BM_KMeansAssignBlock, k)
          ->Unit(benchmark::kMillisecond);
    }
    if (level == simd::SimdLevel::kAvx2) {
      // The carry-less fold has one entry, shared by the AVX-512 table.
      benchmark::RegisterBenchmark("BM_StoreCrc32Clmul", BM_StoreCrc32Fold,
                                   k->crc32_fold);
    }
  }
}

// --- Extraction path: the radix counting routine and the store CRC against
// the code they replaced, kept bench-local and noinline for the same reason
// as the reference kernels above.

// A pool of hashed documents: 480 Zipf-distributed token ids each, hashed
// into an 8192-dimension space the way HashingVectorizer::CountHashes
// does for the bag of words. Cycling distinct documents keeps the comparison sort's branches
// data-random, as they are on a real corpus.
std::vector<std::vector<uint32_t>> HashedDocPool() {
  constexpr uint32_t kDim = 8192;
  Rng rng(31);
  std::vector<std::vector<uint32_t>> pool(kSparsePool);
  for (auto& doc : pool) {
    for (int t = 0; t < 480; ++t) {
      const uint64_t id = rng.NextZipf(20000, 1.0);
      doc.push_back(static_cast<uint32_t>(HashCombine(id, 0) % kDim));
    }
  }
  return pool;
}

// The pre-radix counting: one (index, 1.0) pair per token, a comparison
// sort of the 16-byte pairs, then the duplicate merge (NormalizeTermCounts).
__attribute__((noinline)) TermCounts RefCountTerms(
    const std::vector<uint32_t>& indices) {
  TermCounts counts;
  counts.reserve(indices.size());
  for (uint32_t idx : indices) counts.emplace_back(idx, 1.0);
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t w = 0;
  for (size_t r = 0; r < counts.size(); ++r) {
    if (w > 0 && counts[w - 1].first == counts[r].first) {
      counts[w - 1].second += counts[r].second;
    } else {
      counts[w++] = counts[r];
    }
  }
  counts.resize(w);
  return counts;
}

void BM_RefTermCounting(benchmark::State& state) {
  const auto pool = HashedDocPool();
  for (auto _ : state) {
    for (const auto& doc : pool) benchmark::DoNotOptimize(RefCountTerms(doc));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}
BENCHMARK(BM_RefTermCounting);

void BM_TermCounting(benchmark::State& state) {
  const auto pool = HashedDocPool();
  for (auto _ : state) {
    for (const auto& doc : pool) {
      std::vector<uint32_t> keys = doc;
      TermCounts counts;
      CountIndices(&keys, 8192 - 1, &counts);
      benchmark::DoNotOptimize(counts);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}
BENCHMARK(BM_TermCounting);

// The byte-at-a-time table CRC the store verified records with before
// util/crc32.
__attribute__((noinline)) uint32_t RefCrc32(const uint8_t* data,
                                            size_t len) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// A 4 KB record body: about what a 330-nonzero WebCat vector occupies.
std::vector<uint8_t> RecordBytes() {
  Rng rng(12);
  std::vector<uint8_t> bytes(4096);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

void BM_RefStoreCrc32(benchmark::State& state) {
  const std::vector<uint8_t> record = RecordBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RefCrc32(record.data(), record.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(record.size()));
}
BENCHMARK(BM_RefStoreCrc32);

void BM_StoreCrc32(benchmark::State& state) {
  const std::vector<uint8_t> record = RecordBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(record.data(), record.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(record.size()));
}
BENCHMARK(BM_StoreCrc32);

// Crc32 with an explicit fold body: nullptr is slicing-by-8 throughout
// ("ratio.store_crc32" against the byte loop); the carry-less fold is
// registered per level ("ratio.store_crc32_clmul" against slicing-by-8).
void BM_StoreCrc32Fold(benchmark::State& state, simd::Crc32FoldFn fold) {
  const std::vector<uint8_t> record = RecordBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Crc32WithFold(fold, record.data(), record.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(record.size()));
}

void BM_StoreCrc32Slicing8(benchmark::State& state) {
  BM_StoreCrc32Fold(state, nullptr);
}
BENCHMARK(BM_StoreCrc32Slicing8);

void BM_NaiveBayesUpdate(benchmark::State& state) {
  Rng rng(4);
  NaiveBayesLearner nb;
  SparseVector x = RandomVector(&rng, 8192, 128);
  int32_t y = 0;
  for (auto _ : state) {
    nb.Update(x, y);
    y = 1 - y;
  }
}
BENCHMARK(BM_NaiveBayesUpdate);

void BM_NaiveBayesScore(benchmark::State& state) {
  Rng rng(5);
  NaiveBayesLearner nb;
  for (int i = 0; i < 200; ++i) {
    nb.Update(RandomVector(&rng, 8192, 128), i % 2);
  }
  SparseVector x = RandomVector(&rng, 8192, 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nb.Score(x));
  }
}
BENCHMARK(BM_NaiveBayesScore);

// The naive Bayes batch scoring the dataset's dense slots replaced: a
// call-local weight table as long as the model's count vectors, filled
// lazily on each feature's first use. Trains the same counts as
// NaiveBayesLearner::Update and scores bit-identically (checked at set-up).
class RefNaiveBayes {
 public:
  void Update(SparseVectorView x, int32_t y) {
    class_count_[y] += 1.0;
    dimension_ = std::max(dimension_, x.dimension());
    auto& counts = token_count_[y];
    if (counts.size() < x.dimension()) counts.resize(x.dimension(), 0.0);
    for (size_t i = 0; i < x.num_nonzero(); ++i) {
      const double v = x.value_at(i);
      if (v <= 0.0) continue;
      counts[x.index_at(i)] += v;
      token_total_[y] += v;
    }
  }

  __attribute__((noinline)) void ScoreBatch(const Dataset& data,
                                            double* out) const {
    constexpr double kAlpha = NaiveBayesLearner::kAlpha;
    const double prior1 = (class_count_[1] + 1.0) /
                          (class_count_[0] + class_count_[1] + 2.0);
    const double log_prior = std::log(prior1 / (1.0 - prior1));
    const double v_dim = static_cast<double>(std::max<size_t>(dimension_, 1));
    const double denom0 = token_total_[0] + kAlpha * v_dim;
    const double denom1 = token_total_[1] + kAlpha * v_dim;
    auto weight = [&](size_t f) {
      const double c0 = f < token_count_[0].size() ? token_count_[0][f] : 0.0;
      const double c1 = f < token_count_[1].size() ? token_count_[1][f] : 0.0;
      return std::log((c1 + kAlpha) / denom1) -
             std::log((c0 + kAlpha) / denom0);
    };
    const size_t table_size =
        std::max(token_count_[0].size(), token_count_[1].size());
    const double unseen_weight = weight(table_size);
    std::vector<double> w(table_size);
    std::vector<uint8_t> filled(table_size, 0);
    for (size_t r = 0; r < data.size(); ++r) {
      const SparseVectorView x = data.example(r).x;
      double log_odds = log_prior;
      for (size_t i = 0; i < x.num_nonzero(); ++i) {
        const double v = x.value_at(i);
        if (v <= 0.0) continue;
        const uint32_t idx = x.index_at(i);
        if (idx >= table_size) {
          log_odds += v * unseen_weight;
          continue;
        }
        if (filled[idx] == 0) {
          w[idx] = weight(idx);
          filled[idx] = 1;
        }
        log_odds += v * w[idx];
      }
      out[r] = log_odds;
    }
  }

 private:
  double class_count_[2] = {0.0, 0.0};
  double token_total_[2] = {0.0, 0.0};
  std::vector<double> token_count_[2];
  size_t dimension_ = 0;
};

// One holdout evaluation's scoring pass: naive Bayes over a 400-row WebCat
// holdout (trained on 300 other documents), per row through the Learner
// default, through the lazy weight table above, and through
// NaiveBayesLearner::ScoreBatch, which computes one weight per dataset slot
// in a dense loop. Same scores bit for bit (ml_learners_test); the
// "ratio.nb_score_all" and "ratio.nb_score_slots" gates are the per-row
// and lazy-table walls over the batch wall.
enum class NbScoring { kPerRow, kLazyTable, kBatch };

void BM_NaiveBayesScoreAll(benchmark::State& state, NbScoring scoring) {
  Task task = MakeTask(TaskKind::kWebCat, 700, 1);
  NaiveBayesLearner nb;
  RefNaiveBayes ref;
  Dataset holdout;
  for (size_t i = 0; i < task.corpus.size(); ++i) {
    const Document& doc = task.corpus.doc(i);
    SparseVector x = task.pipeline.Extract(doc, task.corpus);
    const int32_t y = doc.label == 1 ? 1 : 0;
    if (i < 300) {
      nb.Update(x, y);
      ref.Update(x, y);
    } else {
      holdout.Add(x, y);
    }
  }
  std::vector<double> scores(holdout.size());
  std::vector<double> ref_scores(holdout.size());
  nb.ScoreBatch(holdout, scores.data());
  ref.ScoreBatch(holdout, ref_scores.data());
  ZCHECK(std::memcmp(scores.data(), ref_scores.data(),
                     scores.size() * sizeof(double)) == 0)
      << "lazy-table reference diverged from NaiveBayesLearner::ScoreBatch";
  for (auto _ : state) {
    switch (scoring) {
      case NbScoring::kPerRow:
        nb.Learner::ScoreBatch(holdout, scores.data());
        break;
      case NbScoring::kLazyTable:
        ref.ScoreBatch(holdout, scores.data());
        break;
      case NbScoring::kBatch:
        nb.ScoreBatch(holdout, scores.data());
        break;
    }
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(holdout.size()));
}
BENCHMARK_CAPTURE(BM_NaiveBayesScoreAll, per_row, NbScoring::kPerRow);
BENCHMARK_CAPTURE(BM_NaiveBayesScoreAll, lazy_table, NbScoring::kLazyTable);
BENCHMARK_CAPTURE(BM_NaiveBayesScoreAll, batch, NbScoring::kBatch);

void BM_LogisticRegressionUpdate(benchmark::State& state) {
  Rng rng(6);
  LogisticRegressionLearner lr;
  SparseVector x = RandomVector(&rng, 8192, 128);
  int32_t y = 0;
  for (auto _ : state) {
    lr.Update(x, y);
    y = 1 - y;
  }
}
BENCHMARK(BM_LogisticRegressionUpdate);

// Deliberately benchmarks the raw pipeline, not ExtractionService::Featurize:
// this measures extraction cost itself, with no cache in the loop.
void BM_PipelineExtract(benchmark::State& state) {
  Task task = MakeTask(TaskKind::kWebCat, 200, 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        task.pipeline.Extract(task.corpus.doc(i % task.corpus.size()),
                              task.corpus));
    ++i;
  }
}
BENCHMARK(BM_PipelineExtract);

void BM_ComputeSignature(benchmark::State& state) {
  WebCatOptions opts;
  opts.num_documents = 100;
  Corpus corpus = GenerateWebCatCorpus(opts);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSignature(corpus.doc(i % corpus.size())));
    ++i;
  }
}
BENCHMARK(BM_ComputeSignature);

void BM_KMeans(benchmark::State& state) {
  Rng rng(7);
  DenseMatrix rows(64);
  std::vector<double> row(64);
  for (int i = 0; i < state.range(0); ++i) {
    for (double& v : row) v = rng.NextGaussian();
    rows.AppendRow(row.data());
  }
  KMeansConfig cfg;
  cfg.k = 16;
  cfg.max_iterations = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(rows, cfg));
  }
}
BENCHMARK(BM_KMeans)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_PolicySelect_EpsilonGreedy(benchmark::State& state) {
  EpsilonGreedyPolicy policy;
  size_t arms = static_cast<size_t>(state.range(0));
  ArmStats stats(arms);
  policy.Reset(arms);
  Rng rng(8);
  for (size_t a = 0; a < arms; ++a) stats.Record(a, rng.NextDouble());
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.SelectArm(stats, &rng));
  }
}
BENCHMARK(BM_PolicySelect_EpsilonGreedy)->Arg(16)->Arg(256);

void BM_PolicySelect_Ucb1(benchmark::State& state) {
  Ucb1Policy policy;
  size_t arms = static_cast<size_t>(state.range(0));
  ArmStats stats(arms);
  Rng rng(9);
  for (size_t a = 0; a < arms; ++a) stats.Record(a, rng.NextDouble());
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.SelectArm(stats, &rng));
  }
}
BENCHMARK(BM_PolicySelect_Ucb1)->Arg(16)->Arg(256);

void BM_RngZipf(benchmark::State& state) {
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextZipf(8000, 1.1));
  }
}
BENCHMARK(BM_RngZipf);

void BM_CorpusGeneration(benchmark::State& state) {
  WebCatOptions opts;
  opts.num_documents = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateWebCatCorpus(opts));
  }
}
BENCHMARK(BM_CorpusGeneration)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_FeatureCacheLookupHit(benchmark::State& state) {
  Rng rng(11);
  FeatureCache cache;
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    cache.Insert(1, static_cast<uint32_t>(i),
                 FeatureCache::Entry{RandomVector(&rng, 8192, 64), 1, 1000});
  }
  uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Lookup(1, i++ % static_cast<uint32_t>(n)));
  }
}
BENCHMARK(BM_FeatureCacheLookupHit)->Arg(1024)->Arg(65536);

void BM_FeatureCacheInsert(benchmark::State& state) {
  Rng rng(12);
  FeatureCacheOptions copts;
  copts.capacity = 4096;  // exercises the eviction path
  FeatureCache cache(copts);
  SparseVector x = RandomVector(&rng, 8192, 64);
  uint32_t i = 0;
  for (auto _ : state) {
    cache.Insert(1, i++, FeatureCache::Entry{x, 1, 1000});
  }
}
BENCHMARK(BM_FeatureCacheInsert);

void BM_PipelineFingerprint(benchmark::State& state) {
  Task task = MakeTask(TaskKind::kWebCat, 200, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(task.pipeline.Fingerprint());
  }
}
BENCHMARK(BM_PipelineFingerprint);

// DecisionLog::ToJsonl as it was before the number memo: every number
// through AppendJsonNumber, each pull line through two StrFormat calls,
// and the output string grown by doubling. It reads copies of the log's
// runs taken at set-up.
struct RefDecisionRuns {
  std::vector<std::pair<std::string, std::vector<DecisionRecord>>> records;
  std::map<std::string, std::vector<PruneEvent>> prunes;
};

std::string RefDecisionLogJsonl(const RefDecisionRuns& runs) {
  using obs_internal::AppendJsonNumber;
  std::string out;
  for (const auto& [label, records] : runs.records) {
    std::string escaped = obs_internal::JsonEscape(label);
    for (const DecisionRecord& r : records) {
      out += StrFormat(
          "{\"run\": \"%s\", \"iter\": %llu, \"arm\": %u, \"doc\": %u, "
          "\"reward\": ",
          escaped.c_str(), static_cast<unsigned long long>(r.iteration),
          r.arm, r.doc_id);
      AppendJsonNumber(&out, r.reward);
      out += StrFormat(
          ", \"cache\": \"%s\", \"cost_us\": %lld, \"virtual_us\": %lld, "
          "\"scores\": [",
          CacheOutcomeName(r.cache),
          static_cast<long long>(r.extraction_cost_micros),
          static_cast<long long>(r.virtual_micros));
      for (size_t i = 0; i < r.arm_scores.size(); ++i) {
        if (i > 0) out += ", ";
        AppendJsonNumber(&out, r.arm_scores[i]);
      }
      out += "]}\n";
    }
    auto it = runs.prunes.find(label);
    if (it != runs.prunes.end()) {
      for (const PruneEvent& p : it->second) {
        out += StrFormat(
            "{\"run\": \"%s\", \"kind\": \"prune\", \"items\": %llu, "
            "\"virtual_us\": %lld, \"input_dim\": %llu, \"kept\": %llu, "
            "\"pruned\": %llu}\n",
            escaped.c_str(), static_cast<unsigned long long>(p.items),
            static_cast<long long>(p.virtual_micros),
            static_cast<unsigned long long>(p.input_dimension),
            static_cast<unsigned long long>(p.kept_features),
            static_cast<unsigned long long>(p.pruned_features));
      }
    }
  }
  return out;
}

// A DecisionLog shaped like a perfbench grid unit's: the 8 policies x
// {label, improvement} over one EntityExtract corpus, naive Bayes with
// conservative pruning, offline (no ingest lines). Built once per process.
struct DecisionLogFixture {
  DecisionLogFixture() : obs(LogOnly()) {
    Task task = MakeTask(TaskKind::kEntity, 2000, 3);
    KMeansGrouper grouper(16, 7);
    GroupingResult grouping = grouper.Group(task.corpus);
    std::unique_ptr<RewardFunction> label = MakeReward(RewardKind::kLabel);
    std::unique_ptr<RewardFunction> improvement =
        MakeReward(RewardKind::kImprovement);
    NaiveBayesLearner learner;
    ExperimentDriverOptions dopts;
    dopts.num_threads = 1;
    dopts.engine = bench::BenchEngineOptions(1);
    dopts.engine.stop.max_items = 600;
    dopts.engine.pruning = ConservativePruning();
    dopts.engine.obs = &obs;
    ExperimentDriver driver(&task.corpus, &task.pipeline, dopts);
    ExperimentGrid grid;
    grid.policies = {PolicyKind::kRoundRobin,    PolicyKind::kUniformRandom,
                     PolicyKind::kEpsilonGreedy, PolicyKind::kUcb1,
                     PolicyKind::kSlidingUcb,    PolicyKind::kThompson,
                     PolicyKind::kExp3,          PolicyKind::kSoftmax};
    grid.groupings = {&grouping};
    grid.rewards = {label.get(), improvement.get()};
    grid.learners = {&learner};
    grid.seeds = {1};
    ZCHECK(driver.RunGrid(grid).ok());
    for (const std::string& run : obs.decisions()->Labels()) {
      ref.records.emplace_back(run, obs.decisions()->Records(run));
      std::vector<PruneEvent> prunes = obs.decisions()->PruneEvents(run);
      if (!prunes.empty()) ref.prunes[run] = std::move(prunes);
    }
    ZCHECK(RefDecisionLogJsonl(ref) == obs.decisions()->ToJsonl())
        << "reference serializer diverged from DecisionLog::ToJsonl";
  }

  static ObsOptions LogOnly() {
    ObsOptions o;
    o.metrics = false;
    o.trace = false;
    o.decision_log = true;
    return o;
  }

  ObsContext obs;
  RefDecisionRuns ref;
};

// Serializing one grid-shaped DecisionLog, through the reference above and
// through ToJsonl; the "ratio.decision_log_jsonl" gate is the reference
// wall over the ToJsonl wall.
void BM_DecisionLogJsonl(benchmark::State& state, bool reference) {
  static const DecisionLogFixture* fixture = new DecisionLogFixture();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string jsonl = reference ? RefDecisionLogJsonl(fixture->ref)
                                  : fixture->obs.decisions()->ToJsonl();
    bytes = jsonl.size();
    benchmark::DoNotOptimize(jsonl.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_DecisionLogJsonl, reference, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DecisionLogJsonl, memo, false)
    ->Unit(benchmark::kMillisecond);

// Console output plus the repo's machine-readable BENCH_micro.json (per-
// iteration real time in the wall_micros field) when ZOMBIE_BENCH_JSON_DIR
// is set.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonExportReporter(bench::BenchReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      bench::BenchReporter::Entry e;
      e.name = run.benchmark_name();
      e.wall_micros = run.real_accumulated_time /
                      static_cast<double>(run.iterations) * 1e6;
      e.items = static_cast<double>(run.iterations);
      walls_[e.name] = e.wall_micros;
      out_->Add(std::move(e));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Per-iteration wall time of a completed benchmark, or 0 if absent.
  double WallOf(const std::string& name) const {
    auto it = walls_.find(name);
    return it == walls_.end() ? 0.0 : it->second;
  }

 private:
  bench::BenchReporter* out_;
  std::map<std::string, double> walls_;
};

// Old-kernel / new-kernel wall ratios (> 1 means the new path is faster).
// Exported as "ratio.*" metrics in BENCH_micro.json; check_bench_regression
// surfaces them as the kernel-speedup table on the CI step summary.
void ExportKernelRatios(const JsonExportReporter& console,
                        bench::BenchReporter* reporter) {
  const std::pair<const char*, std::pair<const char*, const char*>> kPairs[] =
      {{"ratio.sparse_dot_sparse",
        {"BM_RefSparseDotSparse/128", "BM_SparseDotSparse/128"}},
       {"ratio.sparse_dot_dense",
        {"BM_RefSparseDotDense/128", "BM_SparseDotDense/128"}},
       {"ratio.nb_score_all",
        {"BM_NaiveBayesScoreAll/per_row", "BM_NaiveBayesScoreAll/batch"}},
       {"ratio.term_counting", {"BM_RefTermCounting", "BM_TermCounting"}},
       {"ratio.nb_score_slots",
        {"BM_NaiveBayesScoreAll/lazy_table", "BM_NaiveBayesScoreAll/batch"}},
       {"ratio.store_crc32", {"BM_RefStoreCrc32", "BM_StoreCrc32Slicing8"}},
       {"ratio.store_crc32_clmul",
        {"BM_StoreCrc32Slicing8", "BM_StoreCrc32Clmul"}},
       {"ratio.decision_log_jsonl",
        {"BM_DecisionLogJsonl/reference", "BM_DecisionLogJsonl/memo"}}};
  for (const auto& [metric, pair] : kPairs) {
    const double old_wall = console.WallOf(pair.first);
    const double new_wall = console.WallOf(pair.second);
    if (old_wall > 0.0 && new_wall > 0.0) {
      reporter->AddMetric(metric, old_wall / new_wall);
    }
  }
}

// Per-ISA speedups over the scalar dispatch table, from the runtime-
// registered BM_Simd* benches: "ratio.<isa>.<kernel>" = scalar wall / ISA
// wall on identical inputs through identical indirection. Levels the host
// lacks produce no benches, so their metrics are simply absent and their
// baseline.json gates auto-skip (check_bench_regression reports them as
// "skipped (not run)").
void ExportPerIsaKernelRatios(const JsonExportReporter& console,
                              bench::BenchReporter* reporter) {
  for (simd::SimdLevel level :
       {simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512}) {
    const std::string ln = simd::SimdLevelName(level);
    for (const auto& kernel : kSimdKernelNames) {
      // Appended, not "/" + to_string(...): gcc 12 flags the inlined
      // prepend with a false -Wrestrict.
      std::string suffix = "/";
      suffix += std::to_string(kSimdBenchNnz);
      const double scalar_wall =
          console.WallOf(std::string(kernel.bench) + "/scalar" + suffix);
      const double isa_wall =
          console.WallOf(std::string(kernel.bench) + "/" + ln + suffix);
      if (scalar_wall > 0.0 && isa_wall > 0.0) {
        reporter->AddMetric("ratio." + ln + "." + kernel.metric,
                            scalar_wall / isa_wall);
      }
    }
    const double skew_scalar =
        console.WallOf("BM_SimdDotSparseSparseSkew/scalar");
    const double skew_isa = console.WallOf("BM_SimdDotSparseSparseSkew/" + ln);
    if (skew_scalar > 0.0 && skew_isa > 0.0) {
      reporter->AddMetric("ratio." + ln + ".dot_sparse_sparse_skew",
                          skew_scalar / skew_isa);
    }
    const double assign_scalar = console.WallOf("BM_KMeansAssign/scalar");
    const double assign_isa = console.WallOf("BM_KMeansAssign/" + ln);
    if (assign_scalar > 0.0 && assign_isa > 0.0) {
      reporter->AddMetric("ratio." + ln + ".kmeans_assign",
                          assign_scalar / assign_isa);
    }
  }
  const double block_avx2 = console.WallOf("BM_KMeansAssign/avx2");
  const double block_avx512 = console.WallOf("BM_KMeansAssign/avx512");
  if (block_avx2 > 0.0 && block_avx512 > 0.0) {
    reporter->AddMetric("ratio.avx512.kmeans_block", block_avx2 / block_avx512);
  }
}

}  // namespace
}  // namespace zombie

int main(int argc, char** argv) {
  zombie::SetLogLevel(zombie::LogLevel::kWarning);
  zombie::RegisterPerIsaKernelBenches();
  benchmark::Initialize(&argc, argv);
  zombie::bench::BenchReporter reporter("micro");
  zombie::JsonExportReporter console(&reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  zombie::ExportKernelRatios(console, &reporter);
  zombie::ExportPerIsaKernelRatios(console, &reporter);
  reporter.Finish();
  return 0;
}
