#include "index/signature.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/webcat_generator.h"
#include "index/kmeans_grouper.h"

namespace zombie {
namespace {

Document Doc(std::vector<uint32_t> tokens, uint32_t domain = 0,
             int64_t cost = 10000) {
  Document d;
  d.tokens = std::move(tokens);
  d.domain = domain;
  d.extraction_cost_micros = cost;
  return d;
}

constexpr size_t kTokenDims = kSignatureDimensions - 2;

TEST(SignatureTest, DimensionAndDeterminism) {
  Document d = Doc({1, 2, 3, 4});
  std::vector<double> a = ComputeSignature(d);
  std::vector<double> b = ComputeSignature(d);
  EXPECT_EQ(a.size(), kSignatureDimensions);
  EXPECT_EQ(a, b);
}

TEST(SignatureTest, TokenChannelsL2Normalized) {
  std::vector<double> s = ComputeSignature(Doc({1, 2, 3, 4, 5}));
  double norm_sq = 0.0;
  for (size_t i = 0; i < kTokenDims; ++i) norm_sq += s[i] * s[i];
  EXPECT_NEAR(norm_sq, 1.0, 1e-12);
}

TEST(SignatureTest, EmptyDocumentIsZeroTokenChannels) {
  std::vector<double> s = ComputeSignature(Doc({}));
  // Token dims are zero; scalar channels may be nonzero.
  for (size_t i = 0; i < kTokenDims; ++i) EXPECT_EQ(s[i], 0.0);
}

TEST(SignatureTest, PrefixOnlyReadsMaxTokens) {
  std::vector<uint32_t> base(kSignatureMaxTokens);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<uint32_t>(i % 37);
  }
  std::vector<uint32_t> longer = base;
  longer.insert(longer.end(), {99, 98, 97});
  std::vector<double> a = ComputeSignature(Doc(base));
  std::vector<double> b = ComputeSignature(Doc(longer));
  // Token channels read only the prefix; the length channel reads the
  // full size.
  EXPECT_TRUE(std::equal(a.begin(), a.begin() + kTokenDims, b.begin()));
  EXPECT_NE(a[kTokenDims], b[kTokenDims]);
}

TEST(SignatureTest, DomainChannelDistinguishesDomains) {
  std::vector<double> a = ComputeSignature(Doc({1}, 3));
  std::vector<double> b = ComputeSignature(Doc({1}, 4));
  EXPECT_NE(a.back(), b.back());
}

TEST(SignatureTest, IdfWeightsTokens) {
  std::vector<double> idf(10, 1.0);
  idf[2] = 0.0;  // a token every document has carries no weight
  const std::vector<double> weighted = ComputeSignature(Doc({1, 2}), &idf);
  const std::vector<double> unweighted = ComputeSignature(Doc({1, 2}));
  const std::vector<double> only1 = ComputeSignature(Doc({1}));
  EXPECT_FALSE(std::equal(weighted.begin(), weighted.begin() + kTokenDims,
                          unweighted.begin()));
  EXPECT_TRUE(std::equal(weighted.begin(), weighted.begin() + kTokenDims,
                         only1.begin()));
}

TEST(SignatureMatrixTest, RowsAndVirtualCost) {
  WebCatOptions opts;
  opts.num_documents = 100;
  Corpus corpus = GenerateWebCatCorpus(opts);
  PrefixSignatures p = ComputeSignaturesForPrefix(corpus, corpus.size());
  const SignatureMatrix& m = p.matrix;
  EXPECT_EQ(m.rows.num_rows(), 100u);
  EXPECT_EQ(m.rows.dim(), kSignatureDimensions);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(m.rows.RowVector(i), ComputeSignature(corpus.doc(i), &p.idf));
  }
  EXPECT_EQ(ComputeSignatures(corpus).virtual_cost_micros,
            m.virtual_cost_micros);
  // Two passes (document frequencies, then signatures), each at
  // kSignatureCostFraction of full extraction.
  double expected = 0.0;
  for (const auto& d : corpus.documents()) {
    expected += 2.0 * kSignatureCostFraction *
                static_cast<double>(d.extraction_cost_micros);
  }
  EXPECT_NEAR(static_cast<double>(m.virtual_cost_micros), expected, 2.0);
}

TEST(SignatureMatrixTest, PrefixIdfCountsEachTokenOncePerDocument) {
  WebCatOptions opts;
  opts.num_documents = 300;
  Corpus corpus = GenerateWebCatCorpus(opts);
  const size_t prefix = 200;
  PrefixSignatures p = ComputeSignaturesForPrefix(corpus, prefix);
  // Reference DF: a set of each document's signature prefix.
  std::vector<uint32_t> df(corpus.vocabulary().size(), 0);
  size_t repeats = 0;
  for (size_t i = 0; i < prefix; ++i) {
    const auto& tokens = corpus.doc(i).tokens;
    const size_t limit = std::min(kSignatureMaxTokens, tokens.size());
    std::set<uint32_t> uniq(tokens.begin(), tokens.begin() + limit);
    repeats += limit - uniq.size();
    for (uint32_t tok : uniq) ++df[tok];
  }
  ASSERT_GT(repeats, 0u) << "corpus must repeat tokens within documents";
  ASSERT_EQ(p.idf.size(), df.size());
  for (size_t t = 0; t < df.size(); ++t) {
    EXPECT_EQ(p.idf[t], std::log((1.0 + static_cast<double>(prefix)) /
                                 (1.0 + static_cast<double>(df[t]))))
        << "token " << t;
  }
}

TEST(SignatureMatrixTest, IdfClusteringConcentratesPositives) {
  // The property k-means needs from signatures: with IDF weighting,
  // clusters concentrate target-topic documents far above the base rate
  // even when topical tokens are a minority of the content.
  WebCatOptions opts;
  opts.num_documents = 6000;
  opts.positive_fraction = 0.1;
  opts.topic_token_share = 0.22;
  Corpus corpus = GenerateWebCatCorpus(opts);
  KMeansGrouper grouper(16, 7);
  GroupingResult r = grouper.Group(corpus);
  double best = 0.0;
  for (const auto& grp : r.groups) {
    if (grp.size() < 30) continue;
    size_t pos = 0;
    for (uint32_t d : grp) pos += corpus.doc(d).label == 1;
    best = std::max(best, static_cast<double>(pos) / grp.size());
  }
  double base = corpus.ComputeStats().positive_fraction;
  EXPECT_GT(best, 3.0 * base);
}

}  // namespace
}  // namespace zombie
