// Cross-revision bit pin for index construction (src/index/).
//
// The index build is a chain of floating-point sums: IDF-weighted hashed
// signatures, k-means++ seeding distances, Lloyd assignments, centroid
// means, and the running-mean updates of the incremental grouper. Any
// change that reorders one of those sums (a reassociated SIMD reduction, an
// FMA, a different seeding order) moves a centroid by an ulp and, sooner or
// later, a document to another group. Tests that compare two modes of one
// build cannot see such a change; this one hard-codes FNV-1a digests of
// assignments, centroid bits, inertia and iteration counts:
//   - RunKMeans on crafted inputs (dims 1/5/127/128, k from 1 to 33, k >= n,
//     duplicate rows that force the empty-cluster reseed);
//   - KMeansGrouper::Group (k = 32 and 7) on 2,000-document WebCat and
//     EntityExtract corpora, together with the signature matrix it clusters;
//   - the full GroupBase + AssignOrSplit trace of IncrementalKMeansGrouper,
//     splits included, continued on a Clone() taken mid-stream.
//
// Updating the pins: a change that alters index bits on purpose prints the
// new digests in the failure message as paste-ready rows; paste them in and
// say why in CHANGES.md. The signature digests depend on libm's log/sqrt/
// log2, so they are pinned for glibc x86-64.

#include <cinttypes>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/task_factory.h"
#include "gtest/gtest.h"
#include "index/incremental_grouper.h"
#include "index/kmeans.h"
#include "index/kmeans_grouper.h"
#include "index/signature.h"
#include "util/random.h"
#include "util/string_util.h"

namespace zombie {
namespace {

// FNV-1a 64 over the little-endian bytes of each value: a digest defined
// here, so the pins depend on nothing else in the repo.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void AddDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  void AddDoubles(const double* p, size_t n) {
    for (size_t i = 0; i < n; ++i) AddDouble(p[i]);
  }
  void AddIds(const std::vector<uint32_t>& ids) {
    Add(ids.size());
    for (uint32_t id : ids) Add(id);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

std::string Hex(uint64_t v) { return StrFormat("0x%016" PRIx64 "ull", v); }

// --- Adapters: the only code that knows the index's container types. ---

DenseMatrix ToMatrix(const std::vector<std::vector<double>>& rows) {
  return DenseMatrix::FromRows(rows);
}

void AddMatrix(const DenseMatrix& m, Digest* d) {
  d->Add(m.num_rows());
  d->Add(m.dim());
  for (size_t i = 0; i < m.num_rows(); ++i) {
    const std::vector<double> row = m.RowVector(i);
    d->AddDoubles(row.data(), row.size());
  }
}

uint64_t ResultDigest(const KMeansResult& r) {
  Digest d;
  d.AddIds(r.assignments);
  AddMatrix(r.centroids, &d);
  d.AddDouble(r.inertia);
  d.Add(r.iterations);
  return d.value();
}

// ---------------------------------------------------------------------------
// RunKMeans on crafted inputs
// ---------------------------------------------------------------------------

// `n` rows around `blobs` Gaussian centers whose scales span several
// binades, so sums carry real rounding and Lloyd needs several iterations.
std::vector<std::vector<double>> CraftedRows(size_t n, size_t dim,
                                             size_t blobs, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> centers(blobs, std::vector<double>(dim));
  for (size_t b = 0; b < blobs; ++b) {
    const double scale = static_cast<double>(1u << (b % 7)) * 0.37;
    for (size_t d = 0; d < dim; ++d) {
      centers[b][d] = rng.NextGaussian() * scale;
    }
  }
  std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
  for (size_t i = 0; i < n; ++i) {
    const size_t b = rng.NextBelow(blobs);
    for (size_t d = 0; d < dim; ++d) {
      rows[i][d] = centers[b][d] + rng.NextGaussian() * 0.9;
    }
  }
  return rows;
}

struct CraftedCase {
  const char* name;
  uint64_t digest;
};

// Recorded on the scalar nested-vector k-means that predates the lane
// kernel and flat matrices, as are the pins below.
constexpr CraftedCase kCrafted[] = {
    {"d1/k1", 0x03f53f41bbb0e7d8ull},
    {"d1/k2", 0xce29dcd9125b3da8ull},
    {"d1/k7", 0xf9f8cb6356602719ull},
    {"d1/k8", 0x46b75052b04f2c5eull},
    {"d1/k9", 0x2de76ed04e9073d7ull},
    {"d1/k32", 0x0101c84d0badb45bull},
    {"d1/k33", 0xbb52abbbcf20e96eull},
    {"d5/k1", 0x8f7d841e9d7c5512ull},
    {"d5/k2", 0xb75d3ee204c8e184ull},
    {"d5/k7", 0xa410f971d01303afull},
    {"d5/k8", 0x629773ade689e7e2ull},
    {"d5/k9", 0xf219dc52dce00e63ull},
    {"d5/k32", 0xe29396ecd78e50c7ull},
    {"d5/k33", 0x8c3be71d604ef5c6ull},
    {"d127/k1", 0x3706074bbbc54b37ull},
    {"d127/k2", 0x5a50f8e82119b0bfull},
    {"d127/k7", 0xd0ccc95deebfdd1eull},
    {"d127/k8", 0xa4088f56854e7874ull},
    {"d127/k9", 0xddda1061cfe2e5afull},
    {"d127/k32", 0x8fc0767814100f9bull},
    {"d127/k33", 0x9bea5ada82d90ad2ull},
    {"d128/k1", 0x81deadb8fb03ed3bull},
    {"d128/k2", 0x279e073368199decull},
    {"d128/k7", 0xf27e170b6aaabfafull},
    {"d128/k8", 0x65128a0b98a8f772ull},
    {"d128/k9", 0xcce1ca836c000003ull},
    {"d128/k32", 0xd5e1ea6f0dad30b4ull},
    {"d128/k33", 0xd545de5d23b3a647ull},
    {"k>=n/k5", 0x4b866747feecafafull},
    {"k>=n/k9", 0x794df91d97af9e43ull},
    {"dup/k2", 0xd5bb143c7cb3e38eull},
    {"dup/k8", 0xa4b195e63b9a767eull},
    {"outliers/k24", 0x6f758bcedcf2424full},
};

std::vector<std::pair<std::string, uint64_t>> ComputeCrafted() {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (size_t dim : {1, 5, 127, 128}) {
    for (size_t k : {1, 2, 7, 8, 9, 32, 33}) {
      KMeansConfig cfg;
      cfg.k = k;
      cfg.seed = 11 + dim * 131 + k;
      const auto rows = CraftedRows(240, dim, 12, 1000 + dim * 7 + k);
      out.emplace_back(StrFormat("d%zu/k%zu", dim, k),
                       ResultDigest(RunKMeans(ToMatrix(rows), cfg)));
    }
  }
  {
    // k >= n: one row per cluster, trailing centroids zero.
    const auto rows = CraftedRows(5, 7, 3, 5);
    for (size_t k : {5, 9}) {
      KMeansConfig cfg;
      cfg.k = k;
      out.emplace_back(StrFormat("k>=n/k%zu", k),
                       ResultDigest(RunKMeans(ToMatrix(rows), cfg)));
    }
  }
  {
    // Three distinct points, 60 copies: seeding exhausts the distinct
    // points and falls back to uniform picks, so at k = 8 duplicate
    // centroids lose every tie to the lower id, end up empty and take the
    // empty-cluster reseed path.
    const auto distinct = CraftedRows(3, 5, 3, 77);
    std::vector<std::vector<double>> rows;
    for (size_t i = 0; i < 60; ++i) rows.push_back(distinct[i % 3]);
    for (size_t k : {2, 8}) {
      KMeansConfig cfg;
      cfg.k = k;
      cfg.seed = 3;
      out.emplace_back(StrFormat("dup/k%zu", k),
                       ResultDigest(RunKMeans(ToMatrix(rows), cfg)));
    }
  }
  {
    // Magnitudes three binades apart: a Gaussian clump plus four rows
    // scaled by 1e3, so distances mix tiny and huge addends.
    auto rows = CraftedRows(120, 16, 1, 91);
    for (size_t i = 0; i < 4; ++i) {
      for (double& v : rows[i]) v *= 1e3;
    }
    KMeansConfig cfg;
    cfg.k = 24;
    cfg.seed = 5;
    cfg.max_iterations = 40;
    out.emplace_back("outliers/k24",
                     ResultDigest(RunKMeans(ToMatrix(rows), cfg)));
  }
  return out;
}

TEST(IndexGoldenTest, RunKMeansCrafted) {
  const auto got = ComputeCrafted();
  std::string table;
  for (const auto& [name, digest] : got) {
    table += StrFormat("    {\"%s\", %s},\n", name.c_str(), Hex(digest).c_str());
  }
  ASSERT_EQ(got.size(), std::size(kCrafted)) << "current digests:\n" << table;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(got[i].first);
    EXPECT_EQ(got[i].first, kCrafted[i].name);
    EXPECT_EQ(got[i].second, kCrafted[i].digest);
  }
  if (HasFailure()) ADD_FAILURE() << "current digests:\n" << table;
}

// ---------------------------------------------------------------------------
// KMeansGrouper on generated corpora
// ---------------------------------------------------------------------------

constexpr size_t kCorpusDocs = 2000;

struct GrouperCase {
  const char* name;
  TaskKind task;
  size_t k;
  uint64_t signatures_digest;  // ComputeSignatures matrix + virtual cost
  uint64_t kmeans_digest;      // RunKMeans over those signatures
  uint64_t groups_digest;      // KMeansGrouper::Group result
};

constexpr GrouperCase kGrouper[] = {
    {"webcat/k32", TaskKind::kWebCat, 32,
     0x95b1c96f887ab766ull, 0xa3457739aded8956ull, 0x00905b1440f7d12cull},
    {"webcat/k7", TaskKind::kWebCat, 7,
     0x95b1c96f887ab766ull, 0x55c5bd276711b891ull, 0x6933824ec9a7e183ull},
    {"entity/k32", TaskKind::kEntity, 32,
     0x67a66011aa7b1007ull, 0x02d63e3d9da0016full, 0xf9850efca45a44a4ull},
    {"entity/k7", TaskKind::kEntity, 7,
     0x67a66011aa7b1007ull, 0x92f969bc807d6929ull, 0x1b4ecd709844067bull},
};

uint64_t GroupsDigest(const GroupingResult& g) {
  Digest d;
  d.Add(g.groups.size());
  for (const auto& members : g.groups) d.AddIds(members);
  d.Add(static_cast<uint64_t>(g.build_virtual_micros));
  return d.value();
}

TEST(IndexGoldenTest, KMeansGrouperOnCorpora) {
  const Task webcat = MakeTask(TaskKind::kWebCat, kCorpusDocs, 42);
  const Task entity = MakeTask(TaskKind::kEntity, kCorpusDocs, 43);
  std::string table;
  for (const GrouperCase& c : kGrouper) {
    SCOPED_TRACE(c.name);
    const Corpus& corpus =
        c.task == TaskKind::kWebCat ? webcat.corpus : entity.corpus;
    const SignatureConfig sig_cfg;
    const SignatureMatrix sigs = ComputeSignatures(corpus, sig_cfg);
    Digest sd;
    AddMatrix(sigs.rows, &sd);
    sd.Add(static_cast<uint64_t>(sigs.virtual_cost_micros));

    KMeansConfig kcfg;
    kcfg.k = c.k;
    kcfg.seed = 7;
    const uint64_t km = ResultDigest(RunKMeans(sigs.rows, kcfg));

    KMeansGrouper grouper(c.k, 7, sig_cfg);
    const uint64_t groups = GroupsDigest(grouper.Group(corpus));

    EXPECT_EQ(sd.value(), c.signatures_digest);
    EXPECT_EQ(km, c.kmeans_digest);
    EXPECT_EQ(groups, c.groups_digest);
    table += StrFormat("    {\"%s\", %s, %zu,\n     %s, %s, %s},\n", c.name,
                       c.task == TaskKind::kWebCat ? "TaskKind::kWebCat"
                                                   : "TaskKind::kEntity",
                       c.k, Hex(sd.value()).c_str(), Hex(km).c_str(),
                       Hex(groups).c_str());
  }
  if (HasFailure()) ADD_FAILURE() << "current digests:\n" << table;
}

// ---------------------------------------------------------------------------
// IncrementalKMeansGrouper: base build, arrivals, splits, mid-stream Clone()
// ---------------------------------------------------------------------------

constexpr size_t kStreamBase = 1200;
constexpr uint32_t kCloneAt = 1600;

struct IncrementalCase {
  const char* name;
  TaskKind task;
  size_t splits;           // non-vacuity: the trace really splits
  uint64_t trace_digest;   // base grouping + every IngestAssignment
};

constexpr IncrementalCase kIncremental[] = {
    {"webcat", TaskKind::kWebCat, 16, 0x6eebc68f8fde4ca3ull},
    {"entity", TaskKind::kEntity, 18, 0x40984f8bd2cea3c8ull},
};

void AddIngest(const IngestAssignment& a, Digest* d) {
  d->Add(a.groups.size());
  for (size_t g : a.groups) d->Add(g);
  d->Add(a.new_groups.size());
  for (const NewGroupSeed& s : a.new_groups) {
    d->Add(s.source_group);
    d->AddIds(s.members);
  }
}

TEST(IndexGoldenTest, IncrementalKMeansTrace) {
  const Task webcat = MakeTask(TaskKind::kWebCat, kCorpusDocs, 42);
  const Task entity = MakeTask(TaskKind::kEntity, kCorpusDocs, 43);
  std::string table;
  for (const IncrementalCase& c : kIncremental) {
    SCOPED_TRACE(c.name);
    const Corpus& corpus =
        c.task == TaskKind::kWebCat ? webcat.corpus : entity.corpus;
    IncrementalKMeansOptions opts;
    opts.num_groups = 8;
    opts.seed = 7;
    opts.split_threshold = 24;
    IncrementalKMeansGrouper grouper(opts);
    Digest d;
    d.Add(GroupsDigest(grouper.GroupBase(corpus, kStreamBase)));

    std::unique_ptr<IncrementalGrouper> clone;
    Digest clone_d;
    for (uint32_t doc = kStreamBase; doc < corpus.size(); ++doc) {
      if (doc == kCloneAt) {
        clone = grouper.Clone();
        clone_d = d;
      }
      AddIngest(grouper.AssignOrSplit(corpus, doc), &d);
      if (clone != nullptr) AddIngest(clone->AssignOrSplit(corpus, doc), &clone_d);
    }
    d.Add(grouper.num_groups());
    ASSERT_NE(clone, nullptr);
    clone_d.Add(clone->num_groups());

    EXPECT_EQ(clone_d.value(), d.value()) << "Clone() lost incremental state";
    EXPECT_EQ(grouper.num_splits(), c.splits);
    EXPECT_EQ(d.value(), c.trace_digest);
    table += StrFormat("    {\"%s\", %s, %zu, %s},\n", c.name,
                       c.task == TaskKind::kWebCat ? "TaskKind::kWebCat"
                                                   : "TaskKind::kEntity",
                       grouper.num_splits(), Hex(d.value()).c_str());
  }
  if (HasFailure()) ADD_FAILURE() << "current digests:\n" << table;
}

}  // namespace
}  // namespace zombie
