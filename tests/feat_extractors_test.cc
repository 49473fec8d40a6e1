#include "featureeng/extractors.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/corpus.h"

namespace zombie {
namespace {

Document Doc(std::vector<uint32_t> tokens, uint32_t domain = 0) {
  Document d;
  d.tokens = std::move(tokens);
  d.domain = domain;
  return d;
}

Corpus EmptyCorpus() { return Corpus(); }

TEST(BowExtractorTest, IndicesBoundedAndCountsPositive) {
  HashedBagOfWordsExtractor e(64, /*sublinear_tf=*/false);
  Corpus c = EmptyCorpus();
  TermCounts out;
  e.Extract(Doc({1, 2, 3, 1, 2, 1}), c, &out);
  double total = 0.0;
  for (const auto& [idx, v] : out) {
    EXPECT_LT(idx, 64u);
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_DOUBLE_EQ(total, 6.0);
}

TEST(BowExtractorTest, SublinearTfDampens) {
  HashedBagOfWordsExtractor raw(1 << 16, /*sublinear_tf=*/false);
  HashedBagOfWordsExtractor sub(1 << 16, /*sublinear_tf=*/true);
  Corpus c = EmptyCorpus();
  TermCounts raw_out;
  TermCounts sub_out;
  raw.Extract(Doc({7, 7, 7, 7}), c, &raw_out);
  sub.Extract(Doc({7, 7, 7, 7}), c, &sub_out);
  ASSERT_EQ(raw_out.size(), 1u);
  ASSERT_EQ(sub_out.size(), 1u);
  EXPECT_DOUBLE_EQ(raw_out[0].second, 4.0);
  EXPECT_NEAR(sub_out[0].second, std::log(5.0), 1e-12);
}

// The sublinear weights come from a table for small counts; every one must
// carry libm's bits exactly (called through a volatile pointer here so the
// compiler cannot substitute its own constant-folded log1p).
TEST(BowExtractorTest, SublinearWeightsAreLibmLog1pBits) {
  double (*volatile libm_log1p)(double) = std::log1p;
  HashedBagOfWordsExtractor sub(1 << 16, /*sublinear_tf=*/true);
  Corpus c = EmptyCorpus();
  for (uint32_t count = 1; count <= 80; ++count) {
    TermCounts out;
    sub.Extract(Doc(std::vector<uint32_t>(count, 9)), c, &out);
    ASSERT_EQ(out.size(), 1u);
    const double want = libm_log1p(static_cast<double>(count));
    EXPECT_EQ(std::memcmp(&out[0].second, &want, sizeof(double)), 0)
        << "count " << count;
  }
}

TEST(BowExtractorTest, NameEncodesDimension) {
  EXPECT_EQ(HashedBagOfWordsExtractor(4096).name(), "bow4096");
}

TEST(BigramExtractorTest, EmitsAdjacentPairs) {
  HashedBigramExtractor e(1 << 16);
  Corpus c = EmptyCorpus();
  TermCounts out;
  e.Extract(Doc({1, 2, 3}), c, &out);
  EXPECT_EQ(out.size(), 2u);  // (1,2), (2,3)
  out.clear();
  e.Extract(Doc({1}), c, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_GT(e.cost_factor(), 1.0);  // heavier than unigrams
}

TEST(BigramExtractorTest, EmitsSortedCountedPairs) {
  HashedBigramExtractor e(64);
  Corpus c = EmptyCorpus();
  TermCounts out = {{99, 9.0}};  // Extract appends
  e.Extract(Doc({1, 2, 1, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9}), c, &out);
  ASSERT_GE(out.size(), 2u);
  double total = 0.0;
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i].first, 64u);
    if (i > 1) {
      EXPECT_LT(out[i - 1].first, out[i].first);
    }
    total += out[i].second;
  }
  EXPECT_DOUBLE_EQ(total, 12.0);  // 13 tokens, 12 bigrams
  EXPECT_EQ(out[0], (std::pair<uint32_t, double>{99, 9.0}));
}

TEST(BigramExtractorTest, OrderSensitive) {
  HashedBigramExtractor e(1 << 20);
  Corpus c = EmptyCorpus();
  TermCounts ab;
  TermCounts ba;
  e.Extract(Doc({1, 2}), c, &ab);
  e.Extract(Doc({2, 1}), c, &ba);
  ASSERT_EQ(ab.size(), 1u);
  ASSERT_EQ(ba.size(), 1u);
  EXPECT_NE(ab[0].first, ba[0].first);
}

TEST(KeywordExtractorTest, EmitsOnlyKeywordHits) {
  KeywordExtractor e({10, 20, 30});
  Corpus c = EmptyCorpus();
  TermCounts out;
  e.Extract(Doc({5, 20, 20, 30, 99}), c, &out);
  // Local indices are positions in the sorted keyword list.
  double hits_20 = 0.0;
  double hits_30 = 0.0;
  for (const auto& [idx, v] : out) {
    EXPECT_LT(idx, e.dimension());
    if (idx == 1) hits_20 += v;
    if (idx == 2) hits_30 += v;
  }
  EXPECT_DOUBLE_EQ(hits_20, 2.0);
  EXPECT_DOUBLE_EQ(hits_30, 1.0);
}

TEST(KeywordExtractorTest, EmitsSortedCountedPairs) {
  KeywordExtractor e({40, 10, 30, 20});
  Corpus c = EmptyCorpus();
  TermCounts out;
  e.Extract(Doc({40, 1, 10, 40, 50, 40, 20, 9, 41}), c, &out);
  const TermCounts want = {{0, 1.0}, {1, 1.0}, {3, 3.0}};
  EXPECT_EQ(out, want);
}

TEST(KeywordExtractorTest, DedupsKeywordList) {
  KeywordExtractor e({7, 7, 3});
  EXPECT_EQ(e.dimension(), 2u);
}

TEST(KeywordExtractorDeathTest, EmptyListAborts) {
  EXPECT_DEATH(KeywordExtractor(std::vector<uint32_t>{}), "non-empty");
}

TEST(DocLengthExtractorTest, BucketsMonotoneInLength) {
  DocLengthExtractor e(16);
  Corpus c = EmptyCorpus();
  auto bucket_of = [&](size_t len) {
    TermCounts out;
    e.Extract(Doc(std::vector<uint32_t>(len, 1)), c, &out);
    EXPECT_EQ(out.size(), 1u);
    return out[0].first;
  };
  EXPECT_LE(bucket_of(1), bucket_of(100));
  EXPECT_LE(bucket_of(100), bucket_of(10000));
  EXPECT_LT(bucket_of(100000), 16u);  // clamped to top bucket
}

TEST(DomainExtractorTest, SameDomainSameFeature) {
  DomainExtractor e(256);
  Corpus c = EmptyCorpus();
  TermCounts a;
  TermCounts b;
  TermCounts other;
  e.Extract(Doc({}, 7), c, &a);
  e.Extract(Doc({1, 2}, 7), c, &b);
  e.Extract(Doc({}, 8), c, &other);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].first, b[0].first);
  EXPECT_NE(a[0].first, other[0].first);
}

TEST(DiversityExtractorTest, DistinctRatioBuckets) {
  TokenDiversityExtractor e(10);
  Corpus c = EmptyCorpus();
  TermCounts uniform;
  TermCounts diverse;
  e.Extract(Doc({1, 1, 1, 1, 1, 1, 1, 1, 1, 1}), c, &uniform);
  e.Extract(Doc({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), c, &diverse);
  ASSERT_EQ(uniform.size(), 1u);
  ASSERT_EQ(diverse.size(), 1u);
  EXPECT_LT(uniform[0].first, diverse[0].first);
  // Empty doc gets bucket 0 rather than crashing.
  TermCounts empty;
  e.Extract(Doc({}), c, &empty);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].first, 0u);
}

TEST(ExpensiveWrapperTest, MultipliesCostKeepsFeatures) {
  auto inner = std::make_unique<HashedBagOfWordsExtractor>(128);
  double inner_cost = inner->cost_factor();
  uint32_t inner_dim = inner->dimension();
  ExpensiveWrapperExtractor wrapped(std::move(inner), 3.0);
  EXPECT_DOUBLE_EQ(wrapped.cost_factor(), inner_cost * 3.0);
  EXPECT_EQ(wrapped.dimension(), inner_dim);
  Corpus c = EmptyCorpus();
  TermCounts out;
  wrapped.Extract(Doc({1, 2, 3}), c, &out);
  EXPECT_FALSE(out.empty());
  EXPECT_NE(wrapped.name().find("expensive"), std::string::npos);
}

}  // namespace
}  // namespace zombie
