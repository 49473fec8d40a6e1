#include "bandit/arm_stats.h"

#include <gtest/gtest.h>

namespace zombie {
namespace {

TEST(ArmStatsTest, InitialState) {
  ArmStats s(3);
  EXPECT_EQ(s.num_arms(), 3u);
  EXPECT_EQ(s.num_active(), 3u);
  EXPECT_EQ(s.total_pulls(), 0u);
  for (size_t a = 0; a < 3; ++a) {
    EXPECT_TRUE(s.active(a));
    EXPECT_EQ(s.pulls(a), 0u);
    EXPECT_DOUBLE_EQ(s.mean(a), ArmStats::kPriorMean);
  }
}

TEST(ArmStatsTest, RecordUpdatesCounters) {
  ArmStats s(2);
  s.Record(0, 1.0);
  s.Record(0, 0.0);
  s.Record(1, 0.5);
  EXPECT_EQ(s.pulls(0), 2u);
  EXPECT_EQ(s.pulls(1), 1u);
  EXPECT_EQ(s.total_pulls(), 3u);
  EXPECT_DOUBLE_EQ(s.total_reward(0), 1.0);
  EXPECT_DOUBLE_EQ(s.mean(0), 0.5);
  EXPECT_DOUBLE_EQ(s.mean(1), 0.5);
}

TEST(ArmStatsTest, WindowedMeanTracksRecentRewards) {
  ArmStats s(1);
  // Old high rewards age out of the window.
  s.Record(0, 1.0);
  s.Record(0, 1.0);
  for (size_t i = 0; i < ArmStats::kWindow; ++i) s.Record(0, 0.0);
  EXPECT_DOUBLE_EQ(s.mean(0), 0.0);
  EXPECT_DOUBLE_EQ(s.total_reward(0), 2.0);
  EXPECT_EQ(s.pulls(0), ArmStats::kWindow + 2);
}

TEST(ArmStatsTest, MeanCoversWholeHistoryWithinWindow) {
  ArmStats s(1);
  for (int i = 0; i < 10; ++i) s.Record(0, i < 5 ? 1.0 : 0.0);
  EXPECT_DOUBLE_EQ(s.mean(0), 0.5);
}

TEST(ArmStatsTest, DeactivateRemovesFromActiveCount) {
  ArmStats s(3);
  s.Deactivate(1);
  EXPECT_FALSE(s.active(1));
  EXPECT_EQ(s.num_active(), 2u);
  s.Deactivate(1);  // idempotent
  EXPECT_EQ(s.num_active(), 2u);
  s.Deactivate(0);
  s.Deactivate(2);
  EXPECT_EQ(s.num_active(), 0u);
}

TEST(ArmStatsTest, PriorMeanBeforeFirstPull) {
  ArmStats s(2);
  EXPECT_DOUBLE_EQ(s.mean(0), 1.0);
  s.Record(0, 0.0);
  EXPECT_DOUBLE_EQ(s.mean(0), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(1), 1.0);
}

TEST(ArmStatsTest, AddArmAppendsFreshActiveArm) {
  ArmStats s(2);
  s.Record(0, 1.0);
  size_t arm = s.AddArm();
  EXPECT_EQ(arm, 2u);
  EXPECT_EQ(s.num_arms(), 3u);
  EXPECT_EQ(s.num_active(), 3u);
  EXPECT_TRUE(s.active(arm));
  EXPECT_EQ(s.pulls(arm), 0u);
  EXPECT_DOUBLE_EQ(s.mean(arm), ArmStats::kPriorMean);
  // The new arm records like any other and old arms are untouched.
  s.Record(arm, 0.25);
  EXPECT_DOUBLE_EQ(s.mean(arm), 0.25);
  EXPECT_EQ(s.pulls(0), 1u);
  EXPECT_EQ(s.total_pulls(), 2u);
}

TEST(ArmStatsTest, AddArmAfterDeactivationKeepsCountsStraight) {
  ArmStats s(2);
  s.Deactivate(0);
  EXPECT_EQ(s.num_active(), 1u);
  size_t arm = s.AddArm();
  EXPECT_EQ(arm, 2u);
  EXPECT_EQ(s.num_active(), 2u);
  EXPECT_FALSE(s.active(0));
}

TEST(ArmStatsTest, ReactivateRevivesArmAndKeepsHistory) {
  ArmStats s(2);
  s.Record(1, 1.0);
  s.Record(1, 0.0);
  s.Deactivate(1);
  EXPECT_EQ(s.num_active(), 1u);
  s.Reactivate(1);
  EXPECT_TRUE(s.active(1));
  EXPECT_EQ(s.num_active(), 2u);
  // Same group, only its supply was interrupted: history survives.
  EXPECT_EQ(s.pulls(1), 2u);
  EXPECT_DOUBLE_EQ(s.mean(1), 0.5);
  // No-op on an already-active arm.
  s.Reactivate(1);
  EXPECT_EQ(s.num_active(), 2u);
}

TEST(ArmStatsDeathTest, OutOfRangeArmAborts) {
  ArmStats s(2);
  EXPECT_DEATH(s.Record(2, 1.0), "Check failed");
  EXPECT_DEATH((void)s.mean(5), "Check failed");
}

}  // namespace
}  // namespace zombie
