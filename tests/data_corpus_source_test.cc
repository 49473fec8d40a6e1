#include "data/corpus_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <vector>

#include "data/generator.h"
#include "util/random.h"
#include "util/status.h"

namespace zombie {
namespace {

Corpus SmallCorpus(size_t docs = 1000, uint64_t seed = 77) {
  SyntheticCorpusConfig cfg;
  cfg.num_documents = docs;
  cfg.common_vocabulary_size = 400;
  cfg.topic_vocabulary_size = 80;
  cfg.num_background_topics = 4;
  cfg.num_domains = 12;
  cfg.seed = seed;
  return SyntheticCorpusGenerator(cfg).Generate();
}

TEST(ArrivalScheduleTest, CoversSuffixExactlyOnce) {
  Corpus corpus = SmallCorpus();
  ArrivalScheduleOptions opts;
  std::vector<DocumentArrival> schedule =
      BuildArrivalSchedule(corpus, 600, opts);
  ASSERT_EQ(schedule.size(), 400u);
  std::set<uint32_t> seen;
  for (const DocumentArrival& a : schedule) {
    EXPECT_GE(a.doc_index, 600u);
    EXPECT_LT(a.doc_index, 1000u);
    EXPECT_TRUE(seen.insert(a.doc_index).second)
        << "doc " << a.doc_index << " scheduled twice";
  }
  EXPECT_EQ(seen.size(), 400u);
}

TEST(ArrivalScheduleTest, TimesAreStrictlyIncreasingAndRatePaced) {
  Corpus corpus = SmallCorpus();
  ArrivalScheduleOptions opts;
  opts.docs_per_virtual_second = 100.0;  // mean gap 10'000us
  opts.jitter = 0.5;                     // gaps in [5'000, 15'000]us
  std::vector<DocumentArrival> schedule =
      BuildArrivalSchedule(corpus, 900, opts);
  ASSERT_EQ(schedule.size(), 100u);
  int64_t prev = 0;
  for (const DocumentArrival& a : schedule) {
    int64_t gap = a.at_virtual_micros - prev;
    EXPECT_GE(gap, 5000 - 1);   // llround slack
    EXPECT_LE(gap, 15000 + 1);
    prev = a.at_virtual_micros;
  }
}

TEST(ArrivalScheduleTest, ZeroJitterIsPeriodic) {
  Corpus corpus = SmallCorpus();
  ArrivalScheduleOptions opts;
  opts.docs_per_virtual_second = 1000.0;
  opts.jitter = 0.0;
  std::vector<DocumentArrival> schedule =
      BuildArrivalSchedule(corpus, 990, opts);
  ASSERT_EQ(schedule.size(), 10u);
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].at_virtual_micros,
              static_cast<int64_t>(1000 * (i + 1)));
  }
}

TEST(ArrivalScheduleTest, DeterministicForSeedAndSensitiveToIt) {
  Corpus corpus = SmallCorpus();
  ArrivalScheduleOptions opts;
  opts.order = ArrivalOrder::kShuffled;
  std::vector<DocumentArrival> a = BuildArrivalSchedule(corpus, 500, opts);
  std::vector<DocumentArrival> b = BuildArrivalSchedule(corpus, 500, opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc_index, b[i].doc_index);
    EXPECT_EQ(a[i].at_virtual_micros, b[i].at_virtual_micros);
  }
  opts.seed = 18;
  std::vector<DocumentArrival> c = BuildArrivalSchedule(corpus, 500, opts);
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].doc_index != c[i].doc_index ||
               a[i].at_virtual_micros != c[i].at_virtual_micros;
  }
  EXPECT_TRUE(any_diff) << "seed change must move the schedule";
}

TEST(ArrivalScheduleTest, DomainGroupedOrderIsGroupedAndStable) {
  Corpus corpus = SmallCorpus();
  ArrivalScheduleOptions opts;
  opts.order = ArrivalOrder::kDomainGrouped;
  std::vector<DocumentArrival> schedule =
      BuildArrivalSchedule(corpus, 200, opts);
  // Each domain appears as one contiguous block...
  std::set<uint32_t> closed;
  uint32_t current = corpus.doc(schedule[0].doc_index).domain;
  uint32_t prev_index = 0;
  bool first = true;
  for (const DocumentArrival& a : schedule) {
    uint32_t d = corpus.doc(a.doc_index).domain;
    if (d != current) {
      EXPECT_TRUE(closed.insert(current).second)
          << "domain " << current << " appears in two blocks";
      current = d;
      first = true;
    }
    // ...and within a block, corpus order is preserved (stable sort).
    if (!first) {
      EXPECT_GT(a.doc_index, prev_index);
    }
    prev_index = a.doc_index;
    first = false;
  }
  EXPECT_EQ(closed.find(current), closed.end());
}

TEST(ScheduledCorpusSourceTest, SortsArrivalsAndValidates) {
  Corpus corpus = SmallCorpus(100);
  std::vector<DocumentArrival> arrivals;
  // Deliberately out of order; the constructor stably sorts by time.
  arrivals.push_back({3000, 99});
  arrivals.push_back({1000, 97});
  arrivals.push_back({2000, 98});
  ScheduledCorpusSource source(&corpus, 97, std::move(arrivals));
  ASSERT_EQ(source.arrivals().size(), 3u);
  EXPECT_EQ(source.arrivals()[0].doc_index, 97u);
  EXPECT_EQ(source.arrivals()[1].doc_index, 98u);
  EXPECT_EQ(source.arrivals()[2].doc_index, 99u);
  EXPECT_TRUE(source.Validate().ok());
}

TEST(ScheduledCorpusSourceTest, VisibleCountFollowsVirtualTime) {
  Corpus corpus = SmallCorpus(100);
  std::vector<DocumentArrival> arrivals;
  arrivals.push_back({1000, 98});
  arrivals.push_back({5000, 99});
  ScheduledCorpusSource source(&corpus, 98, std::move(arrivals));
  EXPECT_EQ(source.VisibleCount(0), 98u);
  EXPECT_EQ(source.VisibleCount(999), 98u);
  EXPECT_EQ(source.VisibleCount(1000), 99u);  // inclusive at the timestamp
  EXPECT_EQ(source.VisibleCount(4999), 99u);
  EXPECT_EQ(source.VisibleCount(5000), 100u);
  EXPECT_EQ(source.VisibleCount(1 << 30), 100u);
}

TEST(ScheduledCorpusSourceTest, RejectsBadSchedulesAtConstruction) {
  Corpus corpus = SmallCorpus(100);
  // The constructor ZCHECKs Validate(), so a bad schedule never produces a
  // usable source — it dies with the offending document in the message.
  EXPECT_DEATH(ScheduledCorpusSource(
                   &corpus, 98, std::vector<DocumentArrival>{{1000, 99}}),
               "arrivals");  // missing doc 98
  EXPECT_DEATH(
      ScheduledCorpusSource(&corpus, 98,
                            std::vector<DocumentArrival>{{1000, 99}, {2000, 99}}),
      "twice");
  EXPECT_DEATH(
      ScheduledCorpusSource(&corpus, 99,
                            std::vector<DocumentArrival>{{1000, 0}}),
      "outside");
}

TEST(ScheduledCorpusSourceTest, FullBaseMeansDrainedStream) {
  Corpus corpus = SmallCorpus(100);
  ArrivalScheduleOptions opts;
  std::vector<DocumentArrival> schedule =
      BuildArrivalSchedule(corpus, corpus.size(), opts);
  EXPECT_TRUE(schedule.empty());
  ScheduledCorpusSource source(&corpus, corpus.size(), std::move(schedule));
  EXPECT_TRUE(source.Validate().ok());
  EXPECT_EQ(source.VisibleCount(0), corpus.size());
}

// Seeded property test of ValidateArrivalSchedule: every permutation of
// the streamed suffix, at any non-negative times and in any order, is a
// valid schedule; each single corruption of one is rejected.
TEST(ValidateArrivalScheduleTest, PropertyAcceptsPermutationsRejectsDefects) {
  Corpus corpus = SmallCorpus(60);
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const size_t base = 1 + rng.NextBelow(corpus.size());  // [1, size]
    std::vector<DocumentArrival> valid;
    for (size_t d = base; d < corpus.size(); ++d) {
      DocumentArrival a;
      a.doc_index = static_cast<uint32_t>(d);
      // Ties and zero times are valid.
      a.at_virtual_micros = rng.NextInRange(0, 50);
      valid.push_back(a);
    }
    rng.Shuffle(&valid);
    ASSERT_TRUE(ValidateArrivalSchedule(corpus, base, valid).ok());
    EXPECT_TRUE(ScheduledCorpusSource(&corpus, base, valid).Validate().ok());
    if (valid.empty()) continue;

    const size_t pick = rng.NextBelow(valid.size());
    auto expect_rejected = [&](std::vector<DocumentArrival> bad,
                               const char* defect) {
      Status st = ValidateArrivalSchedule(corpus, base, bad);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << defect;
    };
    std::vector<DocumentArrival> dropped = valid;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(pick));
    expect_rejected(dropped, "dropped");

    std::vector<DocumentArrival> duplicated = valid;
    duplicated.push_back(valid[pick]);
    expect_rejected(duplicated, "duplicated (extra)");
    if (valid.size() >= 2) {
      // Same length: one arrival replaced by another's document.
      duplicated = valid;
      duplicated[pick].doc_index = valid[(pick + 1) % valid.size()].doc_index;
      expect_rejected(duplicated, "duplicated (replaced)");
    }

    std::vector<DocumentArrival> based = valid;
    based[pick].doc_index = static_cast<uint32_t>(rng.NextBelow(base));
    expect_rejected(based, "base document");

    std::vector<DocumentArrival> out_of_range = valid;
    out_of_range[pick].doc_index = static_cast<uint32_t>(
        corpus.size() + rng.NextBelow(1000));
    expect_rejected(out_of_range, "out of range");

    std::vector<DocumentArrival> negative = valid;
    negative[pick].at_virtual_micros = -1 - rng.NextInRange(0, 1000);
    expect_rejected(negative, "negative time");
  }
}

TEST(ValidateArrivalScheduleTest, RejectsBaseBeyondCorpus) {
  Corpus corpus = SmallCorpus(10);
  EXPECT_EQ(ValidateArrivalSchedule(corpus, 11, {}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace zombie
