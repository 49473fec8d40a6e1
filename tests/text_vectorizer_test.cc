#include "text/hashing_vectorizer.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "text/term_counts.h"

namespace zombie {
namespace {

bool IsSortedUnique(const TermCounts& counts) {
  for (size_t i = 1; i < counts.size(); ++i) {
    if (counts[i - 1].first >= counts[i].first) return false;
  }
  return true;
}

TEST(HashingVectorizerTest, IndicesWithinDimension) {
  HashingVectorizer v(16);
  TermCounts c = v.Transform({"a", "b", "c", "d", "e", "f"});
  for (const auto& [idx, value] : c) EXPECT_LT(idx, 16u);
  EXPECT_TRUE(IsSortedUnique(c));
}

TEST(HashingVectorizerTest, RepeatedTokensSum) {
  HashingVectorizer v(1024);
  TermCounts c = v.Transform({"dup", "dup", "dup"});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c[0].second, 3.0);
}

TEST(HashingVectorizerTest, DeterministicAcrossInstances) {
  HashingVectorizer a(256);
  HashingVectorizer b(256);
  EXPECT_EQ(a.Transform({"x", "y"}), b.Transform({"x", "y"}));
  EXPECT_EQ(a.IndexOf("zed"), b.IndexOf("zed"));
}

TEST(HashingVectorizerTest, SaltChangesMapping) {
  HashingVectorizer a(1 << 20, false, 0);
  HashingVectorizer b(1 << 20, false, 1);
  EXPECT_NE(a.IndexOf("token"), b.IndexOf("token"));
}

TEST(HashingVectorizerTest, TransformIdsMatchesDimension) {
  HashingVectorizer v(64);
  TermCounts c = v.TransformIds({1, 2, 3, 1, 2, 1});
  double total = 0.0;
  for (const auto& [idx, value] : c) {
    EXPECT_LT(idx, 64u);
    total += value;
  }
  EXPECT_DOUBLE_EQ(total, 6.0);
  EXPECT_TRUE(IsSortedUnique(c));
}

TEST(HashingVectorizerTest, SignedHashCanCancel) {
  // With sign hashing, values are +/-1 per occurrence; magnitudes bounded.
  HashingVectorizer v(8, /*signed_hash=*/true);
  TermCounts c = v.Transform({"a", "b", "c", "d", "e", "f", "g", "h"});
  double sum_abs = 0.0;
  for (const auto& [idx, value] : c) sum_abs += std::abs(value);
  EXPECT_LE(sum_abs, 8.0);
  EXPECT_GT(sum_abs, 0.0);
}

TEST(HashingVectorizerTest, EmptyInput) {
  HashingVectorizer v(32);
  EXPECT_TRUE(v.Transform({}).empty());
  EXPECT_TRUE(v.TransformIds({}).empty());
}

// --- Zero-allocation view path ------------------------------------------

std::vector<std::string_view> AsViews(const std::vector<std::string>& toks) {
  return std::vector<std::string_view>(toks.begin(), toks.end());
}

TEST(HashingVectorizerTest, TransformViewsBitIdenticalToTransform) {
  const std::vector<std::string> tokens = {"the", "quick", "brown", "fox",
                                           "the", "lazy",  "dog",   "the"};
  // Power-of-two dimensions take the mask path, the others the modulo
  // path; both must agree exactly with Transform (which always divides).
  for (uint32_t dim : {8u, 16u, 1024u, 7u, 100u, 1000u}) {
    for (bool sign : {false, true}) {
      HashingVectorizer v(dim, sign, /*salt=*/42);
      TermCounts scratch;
      v.TransformViews(AsViews(tokens), &scratch);
      EXPECT_EQ(scratch, v.Transform(tokens)) << "dim=" << dim
                                              << " signed=" << sign;
    }
  }
}

TEST(HashingVectorizerTest, TransformViewsClearsScratch) {
  HashingVectorizer v(32);
  TermCounts scratch;
  v.TransformViews(AsViews({"a", "b", "c"}), &scratch);
  v.TransformViews(AsViews({"z"}), &scratch);
  EXPECT_EQ(scratch, v.Transform({"z"}));
}

TEST(HashingVectorizerTest, IndexOfAgreesAcrossReductionPaths) {
  // IndexOf must agree with where Transform actually lands a token, for
  // both the power-of-two mask and the arbitrary-dimension modulo.
  for (uint32_t dim : {64u, 97u}) {
    HashingVectorizer v(dim);
    for (const char* tok : {"alpha", "beta", "gamma", "delta"}) {
      TermCounts c = v.Transform({tok});
      ASSERT_EQ(c.size(), 1u);
      EXPECT_EQ(v.IndexOf(tok), c[0].first) << "dim=" << dim;
    }
  }
}

TEST(TermCountsTest, CountTokenIdsAggregates) {
  TermCounts c = CountTokenIds({5, 3, 5, 5, 3, 9});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], (std::pair<uint32_t, double>{3, 2.0}));
  EXPECT_EQ(c[1], (std::pair<uint32_t, double>{5, 3.0}));
  EXPECT_EQ(c[2], (std::pair<uint32_t, double>{9, 1.0}));
}

}  // namespace
}  // namespace zombie
