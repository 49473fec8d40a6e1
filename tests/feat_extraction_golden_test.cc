// Cross-revision bit pin for feature extraction (src/text/, src/featureeng/).
//
// FeaturePipeline::Extract turns a document into the sparse vector every
// learner, cache entry and store record holds. Its output is a chain of
// exact integer sums (hashed term counts, bigram counts, keyword hits)
// followed by log1p and an L2 normalisation; a change to how the counts
// are merged — a different sort, a different reduction of the hash — must
// leave every index and every value bit where it was. Tests that compare
// two modes of one build cannot see such a change, so this one hard-codes
// FNV-1a digests of the extracted vectors for every revision of the WebCat
// revision script and of a six-revision EntityExtract script (defined
// below) over small generated corpora.
//
// Updating the pins: a change that alters extraction bits on purpose
// prints the new digests in the failure message as paste-ready rows; paste
// them in and say why in CHANGES.md. The digests depend on libm's log1p and
// sqrt, so they are pinned for glibc x86-64.

#include <cinttypes>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/entity_generator.h"
#include "data/webcat_generator.h"
#include "featureeng/extractors.h"
#include "featureeng/revision_script.h"
#include "gtest/gtest.h"
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
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

std::string Hex(uint64_t v) { return StrFormat("0x%016" PRIx64 "ull", v); }

// The engineer's mention keywords: the first `count` target-topic terms.
std::vector<uint32_t> MentionKeywords(const Corpus& corpus, size_t count) {
  std::vector<std::string> names;
  for (size_t i = 0; i < count; ++i) {
    names.push_back(StrFormat("topic0_w%zu", i));
  }
  return ResolveTerms(corpus, names);
}

// A six-revision EntityExtract session focused on keyword and mention
// features: it covers the bigram extractor at 2048 dimensions and the
// keyword extractor at 8 and 16 terms, which the WebCat script does not.
RevisionScript EntityRevisionScript() {
  RevisionScript script;
  script.Add("e0-bow1024", [](const Corpus&) {
    FeaturePipeline p("e0-bow1024");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(1024));
    return p;
  });
  script.Add("e1-bow4096", [](const Corpus&) {
    FeaturePipeline p("e1-bow4096");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(4096));
    return p;
  });
  script.Add("e2-mention-keywords", [](const Corpus& corpus) {
    FeaturePipeline p("e2-mention-keywords");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(4096));
    p.Add(std::make_unique<KeywordExtractor>(MentionKeywords(corpus, 8)));
    return p;
  });
  script.Add("e3-add-context", [](const Corpus& corpus) {
    FeaturePipeline p("e3-add-context");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(4096));
    p.Add(std::make_unique<KeywordExtractor>(MentionKeywords(corpus, 8)));
    p.Add(std::make_unique<HashedBigramExtractor>(2048));
    return p;
  });
  script.Add("e4-add-domain", [](const Corpus& corpus) {
    FeaturePipeline p("e4-add-domain");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(4096));
    p.Add(std::make_unique<KeywordExtractor>(MentionKeywords(corpus, 8)));
    p.Add(std::make_unique<HashedBigramExtractor>(2048));
    p.Add(std::make_unique<DomainExtractor>());
    return p;
  });
  script.Add("e5-deep-context", [](const Corpus& corpus) {
    FeaturePipeline p("e5-deep-context");
    p.Add(std::make_unique<ExpensiveWrapperExtractor>(
        std::make_unique<HashedBagOfWordsExtractor>(8192), 1.5));
    p.Add(std::make_unique<KeywordExtractor>(MentionKeywords(corpus, 16)));
    p.Add(std::make_unique<HashedBigramExtractor>(4096));
    p.Add(std::make_unique<DomainExtractor>());
    return p;
  });
  return script;
}

constexpr size_t kCorpusDocs = 400;

struct RevisionPin {
  const char* name;
  uint64_t digest;
};

// Recorded on the sort-based counting (std::sort over (index, value) pairs
// in NormalizeTermCounts and SparseVector::FromPairs) that predates the
// radix counting routine in text/term_counts.h.
constexpr RevisionPin kWebCatPins[] = {
    {"r0-bow256", 0x031e59be26d8fa1cull},
    {"r1-bow1024", 0xef54ce4d3cb05b3dull},
    {"r2-bow4096", 0x7f442844610eb08eull},
    {"r3-add-doclen", 0x74f57a9cd1f8acb1ull},
    {"r4-add-domain", 0x954a9c10e5233a35ull},
    {"r5-bow8192", 0xde3a515a1567740cull},
    {"r6-add-keywords", 0x6143c59d443d78d6ull},
    {"r7-add-diversity", 0xdcd81beec005fb1bull},
    {"r8-add-bigrams", 0xb2c9b6d4616592b6ull},
    {"r9-deep-features", 0xbf7d5b4c268b2422ull},
};

constexpr RevisionPin kEntityPins[] = {
    {"e0-bow1024", 0x327ddfcf74d41f1eull},
    {"e1-bow4096", 0x0277d2a97f434766ull},
    {"e2-mention-keywords", 0xa1412f044f04b570ull},
    {"e3-add-context", 0x4ba068d1bed79423ull},
    {"e4-add-domain", 0xf9304657deee64deull},
    {"e5-deep-context", 0xa2f51e68f9b071dcull},
};

// Digest of every document's extracted vector under every revision.
std::vector<std::pair<std::string, uint64_t>> ComputeDigests(
    const RevisionScript& script, const Corpus& corpus) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (size_t r = 0; r < script.size(); ++r) {
    FeaturePipeline pipeline = script.BuildPipeline(r, corpus);
    Digest d;
    for (size_t i = 0; i < corpus.size(); ++i) {
      SparseVector v = pipeline.Extract(corpus.doc(i), corpus);
      d.Add(v.num_nonzero());
      for (size_t k = 0; k < v.num_nonzero(); ++k) {
        d.Add(v.index_at(k));
        d.AddDouble(v.value_at(k));
      }
    }
    out.emplace_back(script.name(r), d.value());
  }
  return out;
}

template <size_t N>
void ExpectPins(const std::vector<std::pair<std::string, uint64_t>>& got,
                const RevisionPin (&pins)[N]) {
  std::string table;
  for (const auto& [name, digest] : got) {
    table += StrFormat("    {\"%s\", %s},\n", name.c_str(), Hex(digest).c_str());
  }
  ASSERT_EQ(got.size(), N) << "current digests:\n" << table;
  bool ok = true;
  for (size_t i = 0; i < N; ++i) {
    SCOPED_TRACE(got[i].first);
    EXPECT_EQ(got[i].first, pins[i].name);
    EXPECT_EQ(got[i].second, pins[i].digest);
    ok = ok && got[i].first == pins[i].name && got[i].second == pins[i].digest;
  }
  if (!ok) ADD_FAILURE() << "current digests:\n" << table;
}

TEST(ExtractionGoldenTest, WebCatRevisions) {
  WebCatOptions opts;
  opts.num_documents = kCorpusDocs;
  opts.seed = 1234;
  const Corpus corpus = GenerateWebCatCorpus(opts);
  ExpectPins(ComputeDigests(MakeWebCatRevisionScript(), corpus), kWebCatPins);
}

TEST(ExtractionGoldenTest, EntityRevisions) {
  EntityExtractOptions opts;
  opts.num_documents = kCorpusDocs;
  opts.seed = 4321;
  const Corpus corpus = GenerateEntityExtractCorpus(opts);
  ExpectPins(ComputeDigests(EntityRevisionScript(), corpus), kEntityPins);
}

}  // namespace
}  // namespace zombie
