#include "index/incremental_grouper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "data/generator.h"

namespace zombie {
namespace {

Corpus TestCorpus(size_t docs = 800, uint64_t seed = 41) {
  SyntheticCorpusConfig cfg;
  cfg.num_documents = docs;
  cfg.common_vocabulary_size = 500;
  cfg.topic_vocabulary_size = 100;
  cfg.num_background_topics = 6;
  cfg.num_domains = 10;
  cfg.seed = seed;
  return SyntheticCorpusGenerator(cfg).Generate();
}

// ---------------------------------------------------------------------------
// k-means
// ---------------------------------------------------------------------------

TEST(IncrementalKMeansTest, GroupBaseCoversPrefixAndValidates) {
  Corpus corpus = TestCorpus();
  IncrementalKMeansOptions opts;
  opts.num_groups = 8;
  IncrementalKMeansGrouper grouper(opts);
  GroupingResult grouping = grouper.GroupBase(corpus, 600);
  EXPECT_TRUE(grouping.Validate(600).ok());
  EXPECT_EQ(grouping.num_groups(), grouper.num_groups());
  std::set<uint32_t> covered;
  for (const auto& g : grouping.groups) {
    for (uint32_t d : g) {
      EXPECT_LT(d, 600u) << "base grouping must not touch the suffix";
      covered.insert(d);
    }
  }
  EXPECT_EQ(covered.size(), 600u);
}

TEST(IncrementalKMeansTest, AssignIsDeterministicAndAppendsToOneGroup) {
  Corpus corpus = TestCorpus();
  IncrementalKMeansOptions opts;
  opts.num_groups = 8;
  opts.split_threshold = 1u << 20;  // never split in this test
  IncrementalKMeansGrouper a(opts);
  IncrementalKMeansGrouper b(opts);
  a.GroupBase(corpus, 600);
  b.GroupBase(corpus, 600);
  for (uint32_t d = 600; d < 700; ++d) {
    IngestAssignment ia = a.AssignOrSplit(corpus, d);
    IngestAssignment ib = b.AssignOrSplit(corpus, d);
    ASSERT_EQ(ia.groups.size(), 1u) << "kmeans assigns to exactly one group";
    EXPECT_EQ(ia.groups, ib.groups);
    EXPECT_TRUE(ia.new_groups.empty());
    EXPECT_LT(ia.groups[0], a.num_groups());
  }
  EXPECT_EQ(a.num_splits(), 0u);
  EXPECT_EQ(a.num_groups(), 8u);
}

TEST(IncrementalKMeansTest, OverflowTriggersDeterministicSplit) {
  Corpus corpus = TestCorpus();
  IncrementalKMeansOptions opts;
  opts.num_groups = 2;       // big fat groups...
  opts.split_threshold = 8;  // ...that overflow almost immediately
  IncrementalKMeansGrouper grouper(opts);
  IncrementalKMeansGrouper twin(opts);
  grouper.GroupBase(corpus, 64);
  twin.GroupBase(corpus, 64);
  size_t groups_before = grouper.num_groups();
  bool saw_split = false;
  for (uint32_t d = 64; d < 200; ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    IngestAssignment b = twin.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups, b.groups);
    ASSERT_EQ(a.new_groups.size(), b.new_groups.size());
    for (size_t i = 0; i < a.new_groups.size(); ++i) {
      saw_split = true;
      const NewGroupSeed& seed = a.new_groups[i];
      // Splits record their source group and move a non-empty member set.
      EXPECT_NE(seed.source_group, kNoSourceGroup);
      EXPECT_FALSE(seed.members.empty());
      EXPECT_EQ(seed.members, b.new_groups[i].members);
      for (uint32_t m : seed.members) EXPECT_LT(m, 200u);
    }
  }
  EXPECT_TRUE(saw_split) << "split_threshold=8 over 136 arrivals must split";
  EXPECT_GT(grouper.num_groups(), groups_before);
  EXPECT_EQ(grouper.num_splits(), twin.num_splits());
  EXPECT_EQ(grouper.num_groups(),
            groups_before + grouper.num_splits());
}

TEST(IncrementalKMeansTest, MaxGroupsCapStopsSplitsButNotAssignment) {
  Corpus corpus = TestCorpus();
  IncrementalKMeansOptions opts;
  opts.num_groups = 2;
  opts.split_threshold = 4;
  opts.max_groups = 3;  // one split allowed, then capped
  IncrementalKMeansGrouper grouper(opts);
  grouper.GroupBase(corpus, 64);
  for (uint32_t d = 64; d < 400; ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups.size(), 1u);
    EXPECT_LE(grouper.num_groups(), 3u);
  }
  EXPECT_EQ(grouper.num_groups(), 3u);
  EXPECT_EQ(grouper.num_splits(), 1u);
}

TEST(IncrementalKMeansTest, CloneIsIndependentDeepCopy) {
  Corpus corpus = TestCorpus();
  IncrementalKMeansOptions opts;
  opts.num_groups = 4;
  opts.split_threshold = 8;
  IncrementalKMeansGrouper grouper(opts);
  grouper.GroupBase(corpus, 100);
  std::unique_ptr<IncrementalGrouper> clone = grouper.Clone();
  // Drive the clone and the original with the same stream: identical
  // decisions (Clone copies all state)...
  for (uint32_t d = 100; d < 150; ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    IngestAssignment b = clone->AssignOrSplit(corpus, d);
    EXPECT_EQ(a.groups, b.groups);
    ASSERT_EQ(a.new_groups.size(), b.new_groups.size());
  }
  // ...then drive only the clone further: the original must not move.
  size_t original_groups = grouper.num_groups();
  for (uint32_t d = 150; d < 300; ++d) clone->AssignOrSplit(corpus, d);
  EXPECT_EQ(grouper.num_groups(), original_groups);
}

// ---------------------------------------------------------------------------
// k-means: one trajectory shared by clones
// ---------------------------------------------------------------------------

// What one AssignOrSplit did, plus the grouper's counts after it.
struct KMeansStepRecord {
  std::vector<size_t> groups;
  std::vector<size_t> new_sources;
  std::vector<std::vector<uint32_t>> new_members;
  size_t num_groups = 0;
  size_t num_splits = 0;

  bool operator==(const KMeansStepRecord& o) const {
    return groups == o.groups && new_sources == o.new_sources &&
           new_members == o.new_members && num_groups == o.num_groups &&
           num_splits == o.num_splits;
  }
};

KMeansStepRecord Ingest(IncrementalKMeansGrouper* g, const Corpus& corpus,
                        uint32_t doc) {
  IngestAssignment a = g->AssignOrSplit(corpus, doc);
  KMeansStepRecord r;
  r.groups = a.groups;
  for (const NewGroupSeed& seed : a.new_groups) {
    r.new_sources.push_back(seed.source_group);
    r.new_members.push_back(seed.members);
  }
  r.num_groups = g->num_groups();
  r.num_splits = g->num_splits();
  return r;
}

std::unique_ptr<IncrementalKMeansGrouper> CloneOf(
    const IncrementalKMeansGrouper& g) {
  return std::unique_ptr<IncrementalKMeansGrouper>(
      static_cast<IncrementalKMeansGrouper*>(g.Clone().release()));
}

constexpr size_t kTrajectoryBase = 100;

IncrementalKMeansOptions TrajectoryOptions() {
  IncrementalKMeansOptions opts;
  opts.num_groups = 4;
  opts.split_threshold = 8;  // many splits over the stream
  return opts;
}

// The steps a fresh, unshared grouper takes over `order`.
std::vector<KMeansStepRecord> FreshTrace(const Corpus& corpus,
                                         const std::vector<uint32_t>& order) {
  IncrementalKMeansGrouper fresh(TrajectoryOptions());
  fresh.GroupBase(corpus, kTrajectoryBase);
  std::vector<KMeansStepRecord> trace;
  for (uint32_t d : order) trace.push_back(Ingest(&fresh, corpus, d));
  return trace;
}

std::vector<uint32_t> SuffixOrder(const Corpus& corpus) {
  std::vector<uint32_t> order;
  for (uint32_t d = kTrajectoryBase; d < corpus.size(); ++d) {
    order.push_back(d);
  }
  return order;
}

TEST(IncrementalKMeansTrajectoryTest, LockstepClonesMatchFreshGrouper) {
  Corpus corpus = TestCorpus(400);
  const std::vector<uint32_t> order = SuffixOrder(corpus);
  const std::vector<KMeansStepRecord> want = FreshTrace(corpus, order);
  IncrementalKMeansGrouper prototype(TrajectoryOptions());
  prototype.GroupBase(corpus, kTrajectoryBase);
  auto a = CloneOf(prototype);
  auto b = CloneOf(prototype);
  for (size_t i = 0; i < order.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(Ingest(a.get(), corpus, order[i]) == want[i]);
    ASSERT_TRUE(Ingest(b.get(), corpus, order[i]) == want[i]);
  }
  EXPECT_GT(want.back().num_splits, 0u) << "the stream must split groups";
  // The prototype itself never moved, and still reads the shared log.
  EXPECT_EQ(prototype.num_splits(), 0u);
  EXPECT_TRUE(Ingest(&prototype, corpus, order[0]) == want[0]);
}

TEST(IncrementalKMeansTrajectoryTest, StaggeredClonesMatchFreshGrouper) {
  Corpus corpus = TestCorpus(400);
  const std::vector<uint32_t> order = SuffixOrder(corpus);
  const std::vector<KMeansStepRecord> want = FreshTrace(corpus, order);
  IncrementalKMeansGrouper prototype(TrajectoryOptions());
  prototype.GroupBase(corpus, kTrajectoryBase);
  auto ahead = CloneOf(prototype);
  auto behind = CloneOf(prototype);
  // `ahead` extends the log by 120 steps; `behind` replays 60 of them, then
  // a clone of `behind` taken mid-log follows it; finally `behind`
  // overtakes `ahead` and extends the log itself.
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(Ingest(ahead.get(), corpus, order[i]) == want[i]) << i;
  }
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(Ingest(behind.get(), corpus, order[i]) == want[i]) << i;
  }
  auto follower = CloneOf(*behind);
  EXPECT_EQ(follower->num_groups(), want[59].num_groups);
  EXPECT_EQ(follower->num_splits(), want[59].num_splits);
  for (size_t i = 60; i < 200; ++i) {
    ASSERT_TRUE(Ingest(behind.get(), corpus, order[i]) == want[i]) << i;
  }
  for (size_t i = 120; i < order.size(); ++i) {
    ASSERT_TRUE(Ingest(ahead.get(), corpus, order[i]) == want[i]) << i;
  }
  for (size_t i = 60; i < order.size(); ++i) {
    ASSERT_TRUE(Ingest(follower.get(), corpus, order[i]) == want[i]) << i;
  }
}

TEST(IncrementalKMeansTrajectoryTest, OtherArrivalOrderDivergesPrivately) {
  Corpus corpus = TestCorpus(400);
  const std::vector<uint32_t> order = SuffixOrder(corpus);
  const std::vector<KMeansStepRecord> want = FreshTrace(corpus, order);
  // The same prefix, then the rest in reverse order.
  constexpr size_t kShared = 80;
  std::vector<uint32_t> other(order.begin(), order.begin() + kShared);
  other.insert(other.end(), order.rbegin(), order.rend() - kShared);
  const std::vector<KMeansStepRecord> want_other = FreshTrace(corpus, other);
  // A wholly different order from the first arrival on.
  std::vector<uint32_t> reversed(order.rbegin(), order.rend());
  const std::vector<KMeansStepRecord> want_reversed =
      FreshTrace(corpus, reversed);

  IncrementalKMeansGrouper prototype(TrajectoryOptions());
  prototype.GroupBase(corpus, kTrajectoryBase);
  auto leader = CloneOf(prototype);
  for (size_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(Ingest(leader.get(), corpus, order[i]) == want[i]) << i;
  }
  auto rebel = CloneOf(prototype);
  std::unique_ptr<IncrementalKMeansGrouper> rebel_follower;
  for (size_t i = 0; i < other.size(); ++i) {
    ASSERT_TRUE(Ingest(rebel.get(), corpus, other[i]) == want_other[i]) << i;
    if (i == kShared + 20) rebel_follower = CloneOf(*rebel);
  }
  for (size_t i = kShared + 21; i < other.size(); ++i) {
    ASSERT_TRUE(Ingest(rebel_follower.get(), corpus, other[i]) ==
                want_other[i])
        << i;
  }
  auto reverser = CloneOf(prototype);
  for (size_t i = 0; i < reversed.size(); ++i) {
    ASSERT_TRUE(Ingest(reverser.get(), corpus, reversed[i]) ==
                want_reversed[i])
        << i;
  }
  // The shared trajectory did not move: the leader and a new clone of the
  // prototype still follow the original order.
  for (size_t i = 150; i < order.size(); ++i) {
    ASSERT_TRUE(Ingest(leader.get(), corpus, order[i]) == want[i]) << i;
  }
  auto late = CloneOf(prototype);
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(Ingest(late.get(), corpus, order[i]) == want[i]) << i;
  }
}

TEST(IncrementalKMeansTrajectoryTest, ConcurrentClonesMatchFreshGrouper) {
  Corpus corpus = TestCorpus(400);
  const std::vector<uint32_t> order = SuffixOrder(corpus);
  const std::vector<KMeansStepRecord> want = FreshTrace(corpus, order);
  IncrementalKMeansGrouper prototype(TrajectoryOptions());
  prototype.GroupBase(corpus, kTrajectoryBase);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<KMeansStepRecord>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto clone = CloneOf(prototype);
      for (uint32_t d : order) got[t].push_back(Ingest(clone.get(), corpus, d));
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[t][i] == want[i]) << "thread " << t << " step " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// metadata
// ---------------------------------------------------------------------------

// A handmade corpus with a controlled domain sequence: documents take the
// domains listed in `domains`, in order. Lets the tests stage "a never-seen
// domain arrives mid-stream" deterministically.
Corpus DomainCorpus(const std::vector<uint32_t>& domains) {
  Corpus corpus;
  uint32_t t0 = corpus.mutable_vocabulary().GetOrAdd("alpha");
  uint32_t t1 = corpus.mutable_vocabulary().GetOrAdd("beta");
  corpus.mutable_vocabulary().Freeze();
  uint32_t max_domain = 0;
  for (uint32_t d : domains) max_domain = std::max(max_domain, d);
  for (uint32_t d = 0; d <= max_domain; ++d) {
    corpus.AddDomain("site" + std::to_string(d) + ".example.com");
  }
  for (size_t i = 0; i < domains.size(); ++i) {
    Document doc;
    doc.id = i;
    doc.tokens = {t0, t1};
    doc.label = static_cast<int32_t>(i % 2);
    doc.domain = domains[i];
    doc.extraction_cost_micros = 100;
    corpus.AddDocument(std::move(doc));
  }
  return corpus;
}

TEST(IncrementalMetadataTest, NewDomainOpensGroupBelowCap) {
  // Base (first 4 docs) sees only domains 0 and 1; the stream brings the
  // never-seen domains 2 and 3, plus repeats.
  Corpus corpus = DomainCorpus({0, 1, 0, 1, /*stream:*/ 2, 0, 3, 2});
  IncrementalMetadataGrouper grouper({/*max_groups=*/64});
  GroupingResult grouping = grouper.GroupBase(corpus, 4);
  EXPECT_TRUE(grouping.Validate(4).ok());
  ASSERT_EQ(grouper.num_groups(), 2u);

  std::set<uint32_t> seen = {0, 1};
  for (uint32_t d = 4; d < corpus.size(); ++d) {
    bool fresh = seen.insert(corpus.doc(d).domain).second;
    size_t before = grouper.num_groups();
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups.size(), 1u);
    if (fresh) {
      ASSERT_EQ(a.new_groups.size(), 1u);
      EXPECT_EQ(a.new_groups[0].source_group, kNoSourceGroup)
          << "a new domain is not a split";
      EXPECT_TRUE(a.new_groups[0].members.empty())
          << "engine appends the arrival itself via a.groups";
      EXPECT_EQ(a.groups[0], before) << "new group takes the next id";
      EXPECT_EQ(grouper.num_groups(), before + 1);
    } else {
      EXPECT_TRUE(a.new_groups.empty());
      EXPECT_EQ(grouper.num_groups(), before);
    }
  }
  EXPECT_EQ(grouper.num_groups(), 4u);
}

TEST(IncrementalMetadataTest, AtCapNewDomainsFoldInByHash) {
  Corpus corpus = DomainCorpus({0, 1, /*stream:*/ 2, 3, 4, 5, 2, 3});
  IncrementalMetadataGrouper grouper({/*max_groups=*/2});
  grouper.GroupBase(corpus, 2);
  ASSERT_EQ(grouper.num_groups(), 2u);
  std::vector<size_t> first_assignment(6, 0);
  for (uint32_t d = 2; d < corpus.size(); ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups.size(), 1u);
    EXPECT_LT(a.groups[0], 2u) << "at the cap everything folds into "
                                  "existing groups";
    EXPECT_TRUE(a.new_groups.empty());
    uint32_t domain = corpus.doc(d).domain;
    if (d < 6) {
      first_assignment[domain] = a.groups[0];
    } else {
      // Hash-folding is sticky: a repeated domain lands where it first did.
      EXPECT_EQ(a.groups[0], first_assignment[domain]);
    }
  }
  EXPECT_EQ(grouper.num_groups(), 2u);
}

TEST(IncrementalMetadataTest, CloneCarriesDomainMap) {
  Corpus corpus = DomainCorpus({0, 1, /*stream:*/ 2, 0, 3, 2, 1, 3});
  IncrementalMetadataGrouper grouper({/*max_groups=*/64});
  grouper.GroupBase(corpus, 2);
  std::unique_ptr<IncrementalGrouper> clone = grouper.Clone();
  for (uint32_t d = 2; d < corpus.size(); ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    IngestAssignment b = clone->AssignOrSplit(corpus, d);
    EXPECT_EQ(a.groups, b.groups);
    EXPECT_EQ(a.new_groups.size(), b.new_groups.size());
  }
  EXPECT_EQ(grouper.num_groups(), clone->num_groups());
}

// ---------------------------------------------------------------------------
// token
// ---------------------------------------------------------------------------

TEST(IncrementalTokenTest, AppendOnlyWithCatchAllFallback) {
  Corpus corpus = TestCorpus();
  IncrementalTokenGrouper grouper;
  GroupingResult grouping = grouper.GroupBase(corpus, 600);
  EXPECT_TRUE(grouping.Validate(600).ok());
  // The catch-all always exists: group count = token groups + 1.
  ASSERT_GE(grouper.num_groups(), 1u);
  const size_t catch_all = grouper.num_groups() - 1;
  bool used_catch_all = false;
  for (uint32_t d = 600; d < corpus.size(); ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    EXPECT_TRUE(a.new_groups.empty()) << "token grouper is append-only";
    ASSERT_FALSE(a.groups.empty());
    for (size_t g : a.groups) EXPECT_LT(g, grouper.num_groups());
    if (a.groups.size() == 1 && a.groups[0] == catch_all) {
      used_catch_all = true;
    }
    // Group list has no duplicates (first-mention order).
    std::vector<size_t> sorted = a.groups;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
  EXPECT_EQ(grouper.num_groups(), grouping.num_groups());
  (void)used_catch_all;  // depends on vocabulary; not asserted
}

TEST(IncrementalTokenTest, CatchAllCatchesDocWithNoIndexedToken) {
  // Every document mentions the same two tokens, so both sit above the
  // DF band and no token qualifies: everything lands in the catch-all —
  // which must still exist (unlike the offline TokenGrouper, where a
  // fully-covering table can omit it).
  Corpus corpus;
  corpus.mutable_vocabulary().GetOrAdd("a");
  corpus.mutable_vocabulary().GetOrAdd("b");
  corpus.AddDomain("d");
  for (uint64_t i = 0; i < 620; ++i) {
    Document doc;
    doc.id = i;
    doc.tokens = {0, 1, 0};
    corpus.AddDocument(std::move(doc));
  }
  IncrementalTokenGrouper grouper;
  GroupingResult grouping = grouper.GroupBase(corpus, 600);
  EXPECT_TRUE(grouping.Validate(600).ok());
  EXPECT_EQ(grouper.num_groups(), 1u);
  for (uint32_t d = 600; d < 620; ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups.size(), 1u);
    EXPECT_EQ(a.groups[0], 0u);
  }
}

TEST(IncrementalTokenTest, CloneSharesNoState) {
  Corpus corpus = TestCorpus();
  IncrementalTokenGrouper grouper;
  grouper.GroupBase(corpus, 600);
  std::unique_ptr<IncrementalGrouper> clone = grouper.Clone();
  EXPECT_EQ(clone->num_groups(), grouper.num_groups());
  for (uint32_t d = 600; d < 650; ++d) {
    EXPECT_EQ(grouper.AssignOrSplit(corpus, d).groups,
              clone->AssignOrSplit(corpus, d).groups);
  }
}

}  // namespace
}  // namespace zombie
