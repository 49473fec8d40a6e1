// E11 — substrate microbenchmarks (google-benchmark): the hot paths of the
// inner loop and the index build.

#include <benchmark/benchmark.h>

#include <algorithm>
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
#include "index/signature.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/simd/simd_level.h"
#include "ml/simd/sparse_kernels.h"
#include "ml/sparse_vector.h"
#include "text/hashing_vectorizer.h"
#include "text/term_counts.h"
#include "text/tokenizer.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/random.h"

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
// row — the kNN/k-means shape, and the one run-skipping SIMD exists for
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
// runs, through that level's squared_l2_to_lanes entry. Both produce
// identical assignments.
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

void BM_KMeansAssignLanes(benchmark::State& state,
                          const simd::SparseKernels* k) {
  const AssignFixture& f = KMeansAssignFixture();
  std::vector<uint32_t> assignments(kAssignRows, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignToNearest(k->squared_l2_to_lanes, f.rows,
                                             f.centroids.data(), kAssignK,
                                             &assignments));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAssignRows));
}

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
                                   BM_KMeansAssignLanes, k)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

// --- Text hot path: owned-string tokenize+vectorize vs the view path. ----

std::string SyntheticDocument(size_t words) {
  Rng rng(14);
  static const char* kWords[] = {"zombie",  "feature",  "bandit", "input",
                                 "select",  "corpus",   "group",  "reward",
                                 "holdout", "pipeline", "sparse", "kernel"};
  std::string text;
  for (size_t i = 0; i < words; ++i) {
    text += kWords[rng.NextBelow(sizeof(kWords) / sizeof(kWords[0]))];
    text += (i % 11 == 0) ? ", " : " ";
  }
  return text;
}

// Document sizes mirror the sparse benches' nnz sweep: a short snippet, a
// typical crawl page, and a long article.
void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  const std::string text =
      SyntheticDocument(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize)->Arg(100)->Arg(400)->Arg(1600);

void BM_TokenizeViews(benchmark::State& state) {
  Tokenizer tokenizer;
  const std::string text =
      SyntheticDocument(static_cast<size_t>(state.range(0)));
  TokenBuffer buffer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.TokenizeViews(text, &buffer));
  }
}
BENCHMARK(BM_TokenizeViews)->Arg(100)->Arg(400)->Arg(1600);

void BM_Vectorize(benchmark::State& state) {
  Tokenizer tokenizer;
  HashingVectorizer vectorizer(1 << 18, /*signed_hash=*/true);
  const std::string text =
      SyntheticDocument(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vectorizer.Transform(tokenizer.Tokenize(text)));
  }
}
BENCHMARK(BM_Vectorize)->Arg(100)->Arg(400)->Arg(1600);

void BM_VectorizeViews(benchmark::State& state) {
  Tokenizer tokenizer;
  HashingVectorizer vectorizer(1 << 18, /*signed_hash=*/true);
  const std::string text =
      SyntheticDocument(static_cast<size_t>(state.range(0)));
  TokenBuffer buffer;
  TermCounts scratch;
  for (auto _ : state) {
    vectorizer.TransformViews(tokenizer.TokenizeViews(text, &buffer),
                              &scratch);
    benchmark::DoNotOptimize(scratch);
  }
}
BENCHMARK(BM_VectorizeViews)->Arg(100)->Arg(400)->Arg(1600);

// --- Extraction path: the radix counting routine and the slicing-by-8
// store CRC against the code they replaced, kept bench-local and noinline
// for the same reason as the reference kernels above.

// A pool of hashed documents: 480 Zipf-distributed token ids each, hashed
// into an 8192-dimension space the way HashingVectorizer::TransformIds
// does. Cycling distinct documents keeps the comparison sort's branches
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
      CountIndices(&keys, nullptr, 8192 - 1, &counts);
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

// One holdout evaluation's scoring pass: naive Bayes over a 400-row WebCat
// holdout (trained on 300 other documents), per row through the Learner
// default vs NaiveBayesLearner::ScoreBatch, which computes each distinct
// feature's log-odds weight once per batch. Same scores bit for bit
// (ml_learners_test); "ratio.nb_score_all" is per-row wall / batch wall.
void BM_NaiveBayesScoreAll(benchmark::State& state, bool batched) {
  Task task = MakeTask(TaskKind::kWebCat, 700, 1);
  NaiveBayesLearner nb;
  Dataset holdout;
  for (size_t i = 0; i < task.corpus.size(); ++i) {
    const Document& doc = task.corpus.doc(i);
    SparseVector x = task.pipeline.Extract(doc, task.corpus);
    const int32_t y = doc.label == 1 ? 1 : 0;
    if (i < 300) {
      nb.Update(x, y);
    } else {
      holdout.Add(x, y);
    }
  }
  std::vector<double> scores(holdout.size());
  for (auto _ : state) {
    if (batched) {
      nb.ScoreBatch(holdout, scores.data());
    } else {
      nb.Learner::ScoreBatch(holdout, scores.data());
    }
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(holdout.size()));
}
BENCHMARK_CAPTURE(BM_NaiveBayesScoreAll, per_row, false);
BENCHMARK_CAPTURE(BM_NaiveBayesScoreAll, batch, true);

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
  SignatureConfig cfg;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeSignature(corpus.doc(i % corpus.size()), cfg));
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
      {{"ratio.tokenize_100", {"BM_Tokenize/100", "BM_TokenizeViews/100"}},
       {"ratio.tokenize_400", {"BM_Tokenize/400", "BM_TokenizeViews/400"}},
       {"ratio.tokenize_1600", {"BM_Tokenize/1600", "BM_TokenizeViews/1600"}},
       {"ratio.vectorize_100", {"BM_Vectorize/100", "BM_VectorizeViews/100"}},
       {"ratio.vectorize_400", {"BM_Vectorize/400", "BM_VectorizeViews/400"}},
       {"ratio.vectorize_1600",
        {"BM_Vectorize/1600", "BM_VectorizeViews/1600"}},
       {"ratio.sparse_dot_sparse",
        {"BM_RefSparseDotSparse/128", "BM_SparseDotSparse/128"}},
       {"ratio.sparse_dot_dense",
        {"BM_RefSparseDotDense/128", "BM_SparseDotDense/128"}},
       {"ratio.nb_score_all",
        {"BM_NaiveBayesScoreAll/per_row", "BM_NaiveBayesScoreAll/batch"}},
       {"ratio.term_counting", {"BM_RefTermCounting", "BM_TermCounting"}},
       {"ratio.store_crc32", {"BM_RefStoreCrc32", "BM_StoreCrc32"}}};
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
