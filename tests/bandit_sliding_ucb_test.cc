#include "bandit/sliding_ucb.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace zombie {
namespace {

TEST(SlidingUcbTest, TriesEveryArmFirst) {
  SlidingUcbPolicy policy;
  ArmStats stats(4);
  policy.Reset(4);
  Rng rng(1);
  std::vector<bool> seen(4, false);
  for (int i = 0; i < 4; ++i) {
    size_t arm = policy.SelectArm(stats, &rng);
    EXPECT_FALSE(seen[arm]);
    seen[arm] = true;
    stats.Record(arm, 0.5);
    policy.Observe(arm, 0.5);
  }
}

constexpr size_t kWindow = SlidingUcbPolicy::kWindow;

TEST(SlidingUcbTest, WindowEvictsOldObservations) {
  SlidingUcbPolicy policy;
  policy.Reset(2);
  for (size_t i = 0; i < kWindow + 6; ++i) policy.Observe(0, 1.0);
  EXPECT_EQ(policy.WindowPulls(0), kWindow);
  policy.Observe(1, 0.0);
  EXPECT_EQ(policy.WindowPulls(0), kWindow - 1);
  EXPECT_EQ(policy.WindowPulls(1), 1u);
}

TEST(SlidingUcbTest, EvictedArmGetsRetried) {
  // Once an arm's observations fully age out of the window, it has an
  // infinite index again and must be re-tried.
  SlidingUcbPolicy policy;
  ArmStats stats(2);
  policy.Reset(2);
  Rng rng(2);
  stats.Record(0, 1.0);
  policy.Observe(0, 1.0);
  stats.Record(1, 0.0);
  policy.Observe(1, 0.0);
  // Push arm-1's observation out with a window of arm-0 wins.
  for (size_t i = 0; i < kWindow; ++i) {
    stats.Record(0, 1.0);
    policy.Observe(0, 1.0);
  }
  EXPECT_EQ(policy.WindowPulls(1), 0u);
  EXPECT_EQ(policy.SelectArm(stats, &rng), 1u);
}

TEST(SlidingUcbTest, TracksNonStationarySwitch) {
  // Arm 0 pays first, then dies; arm 1 starts paying. A windowed policy
  // must migrate; a lifetime-mean UCB would cling to arm 0 far longer.
  SlidingUcbPolicy policy;
  ArmStats stats(2);
  policy.Reset(2);
  Rng rng(3);
  auto reward_at = [](size_t arm, int t) {
    bool first_phase = t < 600;
    return (first_phase ? arm == 0 : arm == 1) ? 1.0 : 0.0;
  };
  int second_phase_arm1 = 0;
  for (int t = 0; t < 1200; ++t) {
    size_t arm = policy.SelectArm(stats, &rng);
    double r = reward_at(arm, t);
    stats.Record(arm, r);
    policy.Observe(arm, r);
    if (t >= 800 && arm == 1) ++second_phase_arm1;
  }
  // After the switch settles, most pulls go to arm 1.
  EXPECT_GT(second_phase_arm1, 280);
}

TEST(SlidingUcbTest, SelectsOnlyActiveArms) {
  SlidingUcbPolicy policy;
  ArmStats stats(3);
  policy.Reset(3);
  stats.Deactivate(0);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    size_t arm = policy.SelectArm(stats, &rng);
    EXPECT_NE(arm, 0u);
    stats.Record(arm, 0.5);
    policy.Observe(arm, 0.5);
  }
}

TEST(SlidingUcbTest, OnArmAddedIsTriedAtNextOpportunity) {
  SlidingUcbPolicy policy;
  ArmStats stats(2);
  policy.Reset(2);
  Rng rng(6);
  for (int i = 0; i < 40; ++i) {
    size_t arm = policy.SelectArm(stats, &rng);
    stats.Record(arm, arm == 0 ? 1.0 : 0.0);
    policy.Observe(arm, arm == 0 ? 1.0 : 0.0);
  }
  size_t new_arm = stats.AddArm();
  policy.OnArmAdded(new_arm);
  // Zeroed window counters: no pulls in the window, infinite index.
  EXPECT_EQ(policy.WindowPulls(new_arm), 0u);
  std::vector<double> scores;
  policy.ScoreArms(stats, &scores);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_GE(scores[new_arm], 1e9);
  EXPECT_EQ(policy.SelectArm(stats, &rng), new_arm);
  // Once observed, the newborn joins normal windowed accounting.
  stats.Record(new_arm, 1.0);
  policy.Observe(new_arm, 1.0);
  EXPECT_EQ(policy.WindowPulls(new_arm), 1u);
}

TEST(SlidingUcbTest, NameAndClone) {
  SlidingUcbPolicy policy;
  EXPECT_EQ(policy.name(), "swucb(200)");
  auto clone = policy.Clone();
  EXPECT_EQ(clone->name(), "swucb(200)");
}

TEST(SlidingUcbDeathTest, RequiresReset) {
  SlidingUcbPolicy policy;
  ArmStats stats(2);
  Rng rng(5);
  EXPECT_DEATH(policy.SelectArm(stats, &rng), "Reset");
}

}  // namespace
}  // namespace zombie
