#include "featureeng/revision_script.h"

#include <gtest/gtest.h>

#include "data/entity_generator.h"
#include "data/webcat_generator.h"

namespace zombie {
namespace {

Corpus SmallWebCat() {
  WebCatOptions opts;
  opts.num_documents = 200;
  return GenerateWebCatCorpus(opts);
}

TEST(RevisionScriptTest, WebCatScriptBuildsEveryRevision) {
  RevisionScript script = MakeWebCatRevisionScript();
  EXPECT_EQ(script.size(), 10u);
  Corpus corpus = SmallWebCat();
  for (size_t i = 0; i < script.size(); ++i) {
    FeaturePipeline p = script.BuildPipeline(i, corpus);
    EXPECT_GT(p.dimension(), 0u) << script.name(i);
    EXPECT_GT(p.total_cost_factor(), 0.0) << script.name(i);
    SparseVector v = p.Extract(corpus.doc(0), corpus);
    EXPECT_FALSE(v.empty()) << script.name(i);
  }
}

TEST(RevisionScriptTest, LaterRevisionsGrowRicher) {
  RevisionScript script = MakeWebCatRevisionScript();
  Corpus corpus = SmallWebCat();
  FeaturePipeline first = script.BuildPipeline(0, corpus);
  FeaturePipeline last = script.BuildPipeline(script.size() - 1, corpus);
  EXPECT_GT(last.dimension(), first.dimension());
  EXPECT_GT(last.total_cost_factor(), first.total_cost_factor());
}

TEST(RevisionScriptTest, NamesAreStable) {
  RevisionScript script = MakeWebCatRevisionScript();
  EXPECT_EQ(script.name(0), "r0-bow256");
  EXPECT_EQ(script.name(9), "r9-deep-features");
}

TEST(RevisionScriptTest, CustomScriptRoundTrip) {
  RevisionScript script;
  script.Add("mine", [](const Corpus&) { return FeaturePipeline("mine"); });
  EXPECT_EQ(script.size(), 1u);
  Corpus corpus = SmallWebCat();
  EXPECT_EQ(script.BuildPipeline(0, corpus).name(), "mine");
}

TEST(ResolveTermsTest, DropsUnknownTerms) {
  Corpus corpus = SmallWebCat();
  std::vector<uint32_t> ids =
      ResolveTerms(corpus, {"topic0_w0", "definitely_not_a_term", "w0"});
  EXPECT_EQ(ids.size(), 2u);
}

TEST(ResolveTermsTest, EmptyInput) {
  Corpus corpus = SmallWebCat();
  EXPECT_TRUE(ResolveTerms(corpus, {}).empty());
}

}  // namespace
}  // namespace zombie
