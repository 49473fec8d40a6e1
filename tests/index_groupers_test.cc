#include <gtest/gtest.h>

#include <memory>

#include "data/balanced_generator.h"
#include "data/entity_generator.h"
#include "data/webcat_generator.h"
#include "index/kmeans_grouper.h"
#include "index/metadata_grouper.h"
#include "index/oracle_grouper.h"
#include "index/random_grouper.h"
#include "index/token_grouper.h"

namespace zombie {
namespace {

Corpus TestCorpus(size_t n = 1000) {
  WebCatOptions opts;
  opts.num_documents = n;
  opts.positive_fraction = 0.1;
  return GenerateWebCatCorpus(opts);
}

// Every grouper must produce a covering, duplicate-free-within-group
// result that Validate() accepts.
class EveryGrouperTest : public testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Grouper> MakeGrouper() {
    switch (GetParam()) {
      case 0:
        return std::make_unique<RandomGrouper>(8, 1);
      case 1:
        return std::make_unique<KMeansGrouper>(8, 1);
      case 2:
        return std::make_unique<TokenGrouper>();
      case 3:
        return std::make_unique<MetadataGrouper>(16);
      case 4:
        return std::make_unique<OracleGrouper>(OracleMode::kLabel);
      case 5:
        return std::make_unique<OracleGrouper>(OracleMode::kTopic);
      default:
        return nullptr;
    }
  }
};

TEST_P(EveryGrouperTest, ProducesValidCoveringGroups) {
  Corpus corpus = TestCorpus();
  auto grouper = MakeGrouper();
  GroupingResult g = grouper->Group(corpus);
  EXPECT_TRUE(g.Validate(corpus.size()).ok()) << grouper->name();
  EXPECT_GE(g.num_groups(), 1u);
  EXPECT_EQ(g.method, grouper->name());
  EXPECT_GE(g.build_wall_micros, 0);
  EXPECT_GE(g.build_virtual_micros, 0);
}

TEST_P(EveryGrouperTest, DeterministicGrouping) {
  Corpus corpus = TestCorpus(300);
  GroupingResult a = MakeGrouper()->Group(corpus);
  GroupingResult b = MakeGrouper()->Group(corpus);
  EXPECT_EQ(a.groups, b.groups);
}

INSTANTIATE_TEST_SUITE_P(AllGroupers, EveryGrouperTest,
                         testing::Values(0, 1, 2, 3, 4, 5));

TEST(RandomGrouperTest, NearEqualSizes) {
  Corpus corpus = TestCorpus(1000);
  RandomGrouper g(10, 3);
  GroupingResult r = g.Group(corpus);
  ASSERT_EQ(r.num_groups(), 10u);
  for (const auto& grp : r.groups) {
    EXPECT_EQ(grp.size(), 100u);
  }
  // No raw-data reads.
  EXPECT_EQ(r.build_virtual_micros, 0);
}

TEST(RandomGrouperTest, CarriesNoLabelSignal) {
  Corpus corpus = TestCorpus(4000);
  RandomGrouper g(8, 3);
  GroupingResult r = g.Group(corpus);
  double base = corpus.ComputeStats().positive_fraction;
  for (const auto& grp : r.groups) {
    size_t pos = 0;
    for (uint32_t d : grp) pos += corpus.doc(d).label == 1;
    EXPECT_NEAR(static_cast<double>(pos) / grp.size(), base, 0.06);
  }
}

TEST(KMeansGrouperTest, ConcentratesPositivesOnWebCat) {
  WebCatOptions opts;
  opts.num_documents = 8000;
  Corpus corpus = GenerateWebCatCorpus(opts);
  KMeansGrouper g(32, 7);
  GroupingResult r = g.Group(corpus);
  double base = corpus.ComputeStats().positive_fraction;
  double best_rate = 0.0;
  for (const auto& grp : r.groups) {
    if (grp.size() < 20) continue;
    size_t pos = 0;
    for (uint32_t d : grp) pos += corpus.doc(d).label == 1;
    best_rate = std::max(best_rate,
                         static_cast<double>(pos) / grp.size());
  }
  // The best content cluster is far richer than the base rate.
  EXPECT_GT(best_rate, 3.0 * base);
  // Index construction reads raw data, so virtual cost is positive.
  EXPECT_GT(r.build_virtual_micros, 0);
}

TEST(KMeansGrouperTest, CapsGroupsAtCorpusSize) {
  Corpus corpus = TestCorpus(5);
  KMeansGrouper g(100, 1);
  GroupingResult r = g.Group(corpus);
  EXPECT_LE(r.num_groups(), 5u);
  EXPECT_TRUE(r.Validate(corpus.size()).ok());
}

TEST(TokenGrouperTest, SeedTermsGetDedicatedGroups) {
  EntityExtractOptions opts;
  opts.num_documents = 3000;
  Corpus corpus = GenerateEntityExtractCorpus(opts);
  TokenGrouperOptions topts;
  topts.seed_terms = {"topic0_w0", "topic0_w1", "not_a_term"};
  TokenGrouper g(topts);
  GroupingResult r = g.Group(corpus);
  EXPECT_TRUE(r.Validate(corpus.size()).ok());
  // Seeded groups come first; the group of docs containing topic0_w0 is
  // overwhelmingly positive (mention tokens define the label).
  ASSERT_GE(r.num_groups(), 2u);
  size_t pos = 0;
  for (uint32_t d : r.groups[0]) pos += corpus.doc(d).label == 1;
  ASSERT_FALSE(r.groups[0].empty());
  EXPECT_GT(static_cast<double>(pos) / r.groups[0].size(), 0.9);
}

TEST(TokenGrouperTest, GroupsMayOverlap) {
  Corpus corpus = TestCorpus(2000);
  TokenGrouper g;
  GroupingResult r = g.Group(corpus);
  size_t total_membership = 0;
  for (const auto& grp : r.groups) total_membership += grp.size();
  // Overlap means total membership exceeds corpus size (docs that mention
  // several indexed tokens appear in several groups).
  EXPECT_GT(total_membership, corpus.size() / 2);
  EXPECT_TRUE(r.Validate(corpus.size()).ok());
}

TEST(TokenGrouperTest, RespectsMaxGroups) {
  Corpus corpus = TestCorpus(2000);
  TokenGrouper g;
  GroupingResult r = g.Group(corpus);
  // At most kTokenGroupsMax token groups + the catch-all, and the DF band
  // of this corpus holds more candidates than that.
  EXPECT_EQ(r.num_groups(), kTokenGroupsMax + 1);
}

TEST(MetadataGrouperTest, GroupsShareDomains) {
  Corpus corpus = TestCorpus(2000);
  MetadataGrouper g(1000);  // more slots than domains: one per domain
  GroupingResult r = g.Group(corpus);
  for (const auto& grp : r.groups) {
    ASSERT_FALSE(grp.empty());
    uint32_t domain = corpus.doc(grp[0]).domain;
    for (uint32_t d : grp) EXPECT_EQ(corpus.doc(d).domain, domain);
  }
  EXPECT_EQ(r.build_virtual_micros, 0);  // metadata reads are free
}

TEST(MetadataGrouperTest, FoldsDomainsWhenCapped) {
  Corpus corpus = TestCorpus(2000);
  MetadataGrouper g(8);
  GroupingResult r = g.Group(corpus);
  EXPECT_LE(r.num_groups(), 8u);
  EXPECT_TRUE(r.Validate(corpus.size()).ok());
}

TEST(OracleGrouperTest, LabelModeSplitsPerfectly) {
  Corpus corpus = TestCorpus(1000);
  OracleGrouper g(OracleMode::kLabel);
  GroupingResult r = g.Group(corpus);
  ASSERT_EQ(r.num_groups(), 2u);
  for (const auto& grp : r.groups) {
    int32_t label = corpus.doc(grp[0]).label;
    for (uint32_t d : grp) EXPECT_EQ(corpus.doc(d).label, label);
  }
}

TEST(OracleGrouperTest, TopicModeOneGroupPerTopic) {
  Corpus corpus = TestCorpus(1000);
  OracleGrouper g(OracleMode::kTopic);
  GroupingResult r = g.Group(corpus);
  for (const auto& grp : r.groups) {
    uint32_t topic = corpus.doc(grp[0]).topic;
    for (uint32_t d : grp) EXPECT_EQ(corpus.doc(d).topic, topic);
  }
}

TEST(GroupingResultTest, ValidateRejectsBadResults) {
  GroupingResult g;
  g.groups = {{0, 1}, {1, 2}};
  EXPECT_TRUE(g.Validate(3).ok());
  // Missing doc 3.
  EXPECT_FALSE(g.Validate(4).ok());
  // Out-of-range doc.
  g.groups = {{0, 5}};
  EXPECT_FALSE(g.Validate(3).ok());
  // Duplicate within a group.
  g.groups = {{0, 0}, {1}, {2}};
  EXPECT_FALSE(g.Validate(3).ok());
}

}  // namespace
}  // namespace zombie
