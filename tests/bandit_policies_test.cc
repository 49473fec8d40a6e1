#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bandit/arm_stats.h"
#include "bandit/epsilon_greedy.h"
#include "bandit/exp3.h"
#include "bandit/policy.h"
#include "bandit/round_robin.h"
#include "bandit/softmax.h"
#include "bandit/thompson.h"
#include "bandit/ucb1.h"
#include "bandit/uniform_random.h"
#include "util/random.h"

namespace zombie {
namespace {

constexpr PolicyKind kAllKinds[] = {
    PolicyKind::kRoundRobin,    PolicyKind::kUniformRandom,
    PolicyKind::kEpsilonGreedy, PolicyKind::kUcb1,
    PolicyKind::kSlidingUcb,    PolicyKind::kThompson,
    PolicyKind::kExp3,          PolicyKind::kSoftmax,
};

// Simulates a Bernoulli bandit: arm a pays 1 with probability p[a].
// Returns the fraction of pulls spent on the best arm.
double PlayBandit(BanditPolicy* policy, const std::vector<double>& p,
                  size_t steps, uint64_t seed) {
  ArmStats stats(p.size());
  policy->Reset(p.size());
  Rng rng(seed);
  size_t best_arm = 0;
  for (size_t a = 1; a < p.size(); ++a) {
    if (p[a] > p[best_arm]) best_arm = a;
  }
  size_t best_pulls = 0;
  for (size_t t = 0; t < steps; ++t) {
    size_t arm = policy->SelectArm(stats, &rng);
    double r = rng.NextBernoulli(p[arm]) ? 1.0 : 0.0;
    stats.Record(arm, r);
    policy->Observe(arm, r);
    if (arm == best_arm) ++best_pulls;
  }
  return static_cast<double>(best_pulls) / static_cast<double>(steps);
}

class EveryPolicyTest : public testing::TestWithParam<PolicyKind> {};

TEST_P(EveryPolicyTest, SelectsOnlyActiveArms) {
  auto policy = MakePolicy(GetParam());
  ArmStats stats(4);
  policy->Reset(4);
  stats.Deactivate(0);
  stats.Deactivate(2);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    size_t arm = policy->SelectArm(stats, &rng);
    EXPECT_TRUE(arm == 1 || arm == 3) << PolicyKindName(GetParam());
    stats.Record(arm, rng.NextBernoulli(0.5) ? 1.0 : 0.0);
    policy->Observe(arm, 0.5);
  }
}

TEST_P(EveryPolicyTest, WorksWithSingleArm) {
  auto policy = MakePolicy(GetParam());
  ArmStats stats(1);
  policy->Reset(1);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(policy->SelectArm(stats, &rng), 0u);
    stats.Record(0, 1.0);
    policy->Observe(0, 1.0);
  }
}

TEST_P(EveryPolicyTest, CloneResetsState) {
  auto policy = MakePolicy(GetParam());
  ArmStats stats(3);
  policy->Reset(3);
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    size_t arm = policy->SelectArm(stats, &rng);
    stats.Record(arm, 1.0);
    policy->Observe(arm, 1.0);
  }
  auto clone = policy->Clone();
  EXPECT_EQ(clone->name(), policy->name());
  // The clone must be usable after its own Reset.
  ArmStats fresh(2);
  clone->Reset(2);
  Rng rng2(4);
  size_t arm = clone->SelectArm(fresh, &rng2);
  EXPECT_LT(arm, 2u);
}

TEST_P(EveryPolicyTest, AdaptivePoliciesBeatUniformOnEasyBandit) {
  PolicyKind kind = GetParam();
  // Scheduling policies (round-robin, uniform) are excluded: they ignore
  // rewards by design.
  if (kind == PolicyKind::kRoundRobin || kind == PolicyKind::kUniformRandom) {
    GTEST_SKIP();
  }
  std::vector<double> p = {0.05, 0.05, 0.8, 0.05};
  double best_fraction = 0.0;
  for (uint64_t seed : {11ull, 12ull, 13ull}) {
    auto policy = MakePolicy(kind);
    best_fraction += PlayBandit(policy.get(), p, 2000, seed);
  }
  best_fraction /= 3.0;
  // Uniform would give 0.25; adaptive policies must concentrate.
  EXPECT_GT(best_fraction, 0.5) << PolicyKindName(kind);
}

TEST_P(EveryPolicyTest, OnArmAddedGrowsStateMidRun) {
  auto policy = MakePolicy(GetParam());
  ArmStats stats(3);
  policy->Reset(3);
  Rng rng(21);
  // Burn in so stateful policies have skewed internal state.
  for (int i = 0; i < 60; ++i) {
    size_t arm = policy->SelectArm(stats, &rng);
    double r = arm == 0 ? 1.0 : 0.0;
    stats.Record(arm, r);
    policy->Observe(arm, r);
  }
  // A group split: a fourth arm appears mid-run.
  size_t new_arm = stats.AddArm();
  ASSERT_EQ(new_arm, 3u);
  policy->OnArmAdded(new_arm);
  // ScoreArms must already cover the new arm...
  std::vector<double> scores;
  policy->ScoreArms(stats, &scores);
  EXPECT_EQ(scores.size(), 4u) << PolicyKindName(GetParam());
  // ...and selection must stay in range and reach the newborn arm.
  size_t new_arm_pulls = 0;
  for (int i = 0; i < 500; ++i) {
    size_t arm = policy->SelectArm(stats, &rng);
    ASSERT_LT(arm, 4u) << PolicyKindName(GetParam());
    double r = arm == 0 || arm == new_arm ? 1.0 : 0.0;
    stats.Record(arm, r);
    policy->Observe(arm, r);
    new_arm_pulls += arm == new_arm;
  }
  EXPECT_GT(new_arm_pulls, 0u)
      << PolicyKindName(GetParam()) << " never tried the newborn arm";
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EveryPolicyTest,
                         testing::ValuesIn(kAllKinds),
                         [](const testing::TestParamInfo<PolicyKind>& param_info) {
                           std::string name = PolicyKindName(param_info.param);
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(RoundRobinTest, CyclesInOrder) {
  RoundRobinPolicy policy;
  ArmStats stats(3);
  policy.Reset(3);
  Rng rng(1);
  std::vector<size_t> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(policy.SelectArm(stats, &rng));
  EXPECT_EQ(picks, (std::vector<size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(RoundRobinTest, SkipsDeactivatedArms) {
  RoundRobinPolicy policy;
  ArmStats stats(3);
  policy.Reset(3);
  stats.Deactivate(1);
  Rng rng(1);
  std::vector<size_t> picks;
  for (int i = 0; i < 4; ++i) picks.push_back(policy.SelectArm(stats, &rng));
  EXPECT_EQ(picks, (std::vector<size_t>{0, 2, 0, 2}));
}

TEST(UniformRandomTest, CoversAllActiveArms) {
  UniformRandomPolicy policy;
  ArmStats stats(4);
  Rng rng(5);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[policy.SelectArm(stats, &rng)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(EpsilonGreedyTest, TriesEveryArmOnceFirst) {
  EpsilonGreedyPolicy policy;
  ArmStats stats(5);
  policy.Reset(5);
  Rng rng(6);
  std::vector<bool> seen(5, false);
  for (int i = 0; i < 5; ++i) {
    size_t arm = policy.SelectArm(stats, &rng);
    EXPECT_FALSE(seen[arm]);
    seen[arm] = true;
    stats.Record(arm, 0.0);
  }
}

TEST(EpsilonGreedyTest, ZeroEpsilonIsPureGreedy) {
  EpsilonGreedyOptions opts;
  opts.epsilon = 0.0;
  EpsilonGreedyPolicy policy(opts);
  ArmStats stats(3);
  policy.Reset(3);
  Rng rng(7);
  stats.Record(0, 0.1);
  stats.Record(1, 0.9);
  stats.Record(2, 0.2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy.SelectArm(stats, &rng), 1u);
  }
}

TEST(EpsilonGreedyTest, DecaySchedule) {
  EpsilonGreedyOptions opts;
  opts.epsilon = 1.0;
  opts.decay = 0.5;
  opts.min_epsilon = 0.1;
  EpsilonGreedyPolicy policy(opts);
  ArmStats stats(2);
  policy.Reset(2);
  Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    policy.SelectArm(stats, &rng);
    stats.Record(0, 0.0);
  }
  EXPECT_DOUBLE_EQ(policy.current_epsilon(), 0.1);  // floored
  policy.Reset(2);
  EXPECT_DOUBLE_EQ(policy.current_epsilon(), 1.0);
}

TEST(Ucb1Test, PrefersHighMeanWithEqualPulls) {
  Ucb1Policy policy;
  ArmStats stats(2);
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    stats.Record(0, 1.0);
    stats.Record(1, 0.0);
  }
  EXPECT_EQ(policy.SelectArm(stats, &rng), 0u);
}

TEST(Ucb1Test, ExplorationBonusRevisitsNeglectedArm) {
  Ucb1Policy policy;
  ArmStats stats(2);
  Rng rng(10);
  // Arm 0 slightly better but hammered; arm 1 pulled once.
  for (int i = 0; i < 500; ++i) stats.Record(0, 0.55);
  stats.Record(1, 0.5);
  EXPECT_EQ(policy.SelectArm(stats, &rng), 1u);
}

TEST(ThompsonTest, RequiresReset) {
  ThompsonPolicy policy;
  ArmStats stats(2);
  Rng rng(11);
  EXPECT_DEATH(policy.SelectArm(stats, &rng), "Reset");
}

TEST(Exp3Test, RequiresReset) {
  Exp3Policy policy;
  ArmStats stats(2);
  Rng rng(12);
  EXPECT_DEATH(policy.SelectArm(stats, &rng), "Reset");
}

TEST(Exp3Test, WeightsStayFiniteOverLongRuns) {
  Exp3Policy policy;
  ArmStats stats(3);
  policy.Reset(3);
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    size_t arm = policy.SelectArm(stats, &rng);
    double r = arm == 0 ? 1.0 : 0.0;
    stats.Record(arm, r);
    policy.Observe(arm, r);
  }
  // If weights overflowed this would have produced NaN selections and
  // tripped the uniform fallback forever; the best arm must dominate.
  EXPECT_GT(stats.pulls(0), 10000u);
}

TEST(SoftmaxTest, TemperatureControlsGreediness) {
  ArmStats stats(2);
  Rng rng(14);
  for (int i = 0; i < 20; ++i) {
    stats.Record(0, 1.0);
    stats.Record(1, 0.0);
  }
  SoftmaxOptions cold;
  cold.temperature = 0.01;
  SoftmaxPolicy greedy(cold);
  int arm0 = 0;
  for (int i = 0; i < 200; ++i) arm0 += greedy.SelectArm(stats, &rng) == 0;
  EXPECT_GT(arm0, 195);

  SoftmaxOptions hot;
  hot.temperature = 100.0;
  SoftmaxPolicy uniform(hot);
  arm0 = 0;
  for (int i = 0; i < 2000; ++i) arm0 += uniform.SelectArm(stats, &rng) == 0;
  EXPECT_NEAR(arm0, 1000, 150);
}

TEST(Exp3Test, OnArmAddedStartsAtMaxActiveWeight) {
  Exp3Policy policy;
  ArmStats stats(2);
  policy.Reset(2);
  Rng rng(15);
  // Skew the weights hard toward arm 0.
  for (int i = 0; i < 500; ++i) {
    size_t arm = policy.SelectArm(stats, &rng);
    double r = arm == 0 ? 1.0 : 0.0;
    stats.Record(arm, r);
    policy.Observe(arm, r);
  }
  size_t new_arm = stats.AddArm();
  policy.OnArmAdded(new_arm);
  std::vector<double> probs;
  policy.ScoreArms(stats, &probs);
  ASSERT_EQ(probs.size(), 3u);
  // Born at the maximum active weight: the newborn's choice probability
  // ties the current leader and dominates the starved arm.
  EXPECT_NEAR(probs[new_arm], probs[0], 1e-9);
  EXPECT_GT(probs[new_arm], probs[1]);
}

TEST(ThompsonTest, OnArmAddedStartsAtBarePrior) {
  ThompsonOptions opts;
  opts.prior_alpha = 1.0;
  opts.prior_beta = 1.0;
  ThompsonPolicy policy(opts);
  ArmStats stats(2);
  policy.Reset(2);
  Rng rng(16);
  for (int i = 0; i < 200; ++i) {
    size_t arm = policy.SelectArm(stats, &rng);
    stats.Record(arm, 1.0);
    policy.Observe(arm, 1.0);
  }
  size_t new_arm = stats.AddArm();
  policy.OnArmAdded(new_arm);
  std::vector<double> means;
  policy.ScoreArms(stats, &means);
  ASSERT_EQ(means.size(), 3u);
  // Zero pseudo-counts: posterior mean is exactly the prior's 0.5, while
  // the trained arms sit near 1.
  EXPECT_NEAR(means[new_arm], 0.5, 1e-9);
  EXPECT_GT(means[0], 0.8);
}

TEST(PolicyFactoryTest, NamesRoundTrip) {
  for (PolicyKind kind : kAllKinds) {
    auto policy = MakePolicy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());
  }
  EXPECT_STREQ(PolicyKindName(PolicyKind::kUcb1), "ucb1");
}

}  // namespace
}  // namespace zombie
