// ExtractionService unit tests: the facade must behave exactly like the
// hand-inlined (lookup -> extract -> insert) sequence it replaced — same
// vectors, same CacheOutcome stream — and online pruning must compact only
// the returned vector, never the cached one.

#include "featureeng/extraction_service.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/task_factory.h"
#include "featureeng/feature_cache.h"
#include "ml/feature_pruner.h"
#include "ml/naive_bayes.h"

namespace zombie {
namespace {

class ExtractionServiceTest : public ::testing::Test {
 protected:
  ExtractionServiceTest() : task_(MakeTask(TaskKind::kWebCat, 200, 42)) {}

  Task task_;
};

TEST_F(ExtractionServiceTest, NoCacheFeaturizeMatchesRawExtract) {
  ExtractionService service(&task_.pipeline);
  for (uint32_t id = 0; id < 10; ++id) {
    CacheOutcome outcome = CacheOutcome::kHit;
    SparseVector got =
        service.Featurize(task_.corpus.doc(id), id, task_.corpus, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::kDisabled);
    EXPECT_EQ(got, task_.pipeline.Extract(task_.corpus.doc(id), task_.corpus));
  }
}

TEST_F(ExtractionServiceTest, CacheMemoizesAndReportsOutcomes) {
  FeatureCache cache;
  ExtractionService service(&task_.pipeline, &cache);
  const Document& doc = task_.corpus.doc(3);
  SparseVector raw = task_.pipeline.Extract(doc, task_.corpus);

  CacheOutcome outcome = CacheOutcome::kDisabled;
  EXPECT_EQ(service.Featurize(doc, 3, task_.corpus, &outcome), raw);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_EQ(service.Featurize(doc, 3, task_.corpus, &outcome), raw);
  EXPECT_EQ(outcome, CacheOutcome::kHit);

  EXPECT_EQ(service.ExtractionCostMicros(doc),
            task_.pipeline.ExtractionCostMicros(doc));
  EXPECT_EQ(service.pipeline_fingerprint(), task_.pipeline.Fingerprint());
}

// Trains a learner on the first `items` docs while the pruner observes the
// same vectors, then freezes the mask at `items`. Returns the frozen pruner.
FeaturePruner MakeFrozenPruner(const Task& task, size_t items) {
  FeaturePrunerOptions opts = ConservativePruning();
  opts.freeze_after_items = items;
  FeaturePruner pruner(opts);
  NaiveBayesLearner nb;
  for (uint32_t id = 0; id < items; ++id) {
    SparseVector x = task.pipeline.Extract(task.corpus.doc(id), task.corpus);
    pruner.ObserveExample(x);
    nb.Update(x, static_cast<int32_t>(id % 2));
  }
  EXPECT_TRUE(pruner.MaybeFreeze(&nb, items));
  EXPECT_TRUE(pruner.frozen());
  EXPECT_GT(pruner.stats().pruned_features, 0u);
  return pruner;
}

TEST_F(ExtractionServiceTest, PrunerCompactsReturnsButCacheStaysFullDim) {
  FeaturePruner pruner = MakeFrozenPruner(task_, 60);
  FeatureCache cache;
  ExtractionService service(&task_.pipeline, &cache);

  const uint32_t kDoc = 150;  // untouched by the pruner warmup
  const Document& doc = task_.corpus.doc(kDoc);
  SparseVector full = task_.pipeline.Extract(doc, task_.corpus);
  SparseVector compacted = full;
  pruner.CompactInPlace(&compacted);
  ASSERT_LT(compacted.num_nonzero(), full.num_nonzero())
      << "test doc never crossed the mask — pick one that does";

  // Miss path: the return is compacted, the cache entry is not.
  CacheOutcome outcome = CacheOutcome::kDisabled;
  EXPECT_EQ(service.Featurize(doc, kDoc, task_.corpus, &outcome, &pruner),
            compacted);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  auto entry = cache.Lookup(task_.pipeline.Fingerprint(), kDoc);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->features, full)
      << "cache must stay keyed at full dimension (shared across pruned "
         "and unpruned runs)";

  // Hit path: the same full-dimension entry is compacted on the way out.
  EXPECT_EQ(service.Featurize(doc, kDoc, task_.corpus, &outcome, &pruner),
            compacted);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(cache.Lookup(task_.pipeline.Fingerprint(), kDoc)->features, full);

  // A null or not-yet-frozen pruner changes nothing.
  EXPECT_EQ(service.Featurize(doc, kDoc, task_.corpus, &outcome), full);
  FeaturePruner unfrozen((FeaturePrunerOptions()));
  EXPECT_EQ(service.Featurize(doc, kDoc, task_.corpus, &outcome, &unfrozen),
            full);
}

}  // namespace
}  // namespace zombie
