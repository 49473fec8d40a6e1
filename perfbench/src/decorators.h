#ifndef ZOMBIE_PERFBENCH_DECORATORS_H_
#define ZOMBIE_PERFBENCH_DECORATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "bandit/policy.h"
#include "core/reward.h"
#include "index/incremental_grouper.h"
#include "ledger.h"
#include "ml/learner.h"

namespace zombie {
namespace perfbench {

// Transparent timing decorators for the component interfaces the engine
// clones per run. Each forwards every virtual to the wrapped object and
// times it into the ledger; Clone() wraps the inner clone, so the copies
// the engine makes stay timed. Wrapped and unwrapped runs are
// byte-identical (perfbench_test pins RunResult fingerprints and decision
// logs across all eight policies with streaming and pruning on).

class TimedPolicy final : public BanditPolicy {
 public:
  TimedPolicy(std::unique_ptr<BanditPolicy> inner, Ledger* ledger);

  void Reset(size_t num_arms) override;
  size_t SelectArm(const ArmStats& stats, Rng* rng) override;
  void Observe(size_t arm, double reward) override;
  void OnArmAdded(size_t arm) override;
  std::string name() const override { return inner_->name(); }
  void ScoreArms(const ArmStats& stats,
                 std::vector<double>* out) const override;
  std::unique_ptr<BanditPolicy> Clone() const override;

 private:
  std::unique_ptr<BanditPolicy> inner_;
  Ledger* ledger_;
};

class TimedLearner final : public Learner {
 public:
  TimedLearner(std::unique_ptr<Learner> inner, Ledger* ledger);

  void Update(SparseVectorView x, int32_t y) override;
  double Score(SparseVectorView x) const override;
  int32_t Predict(SparseVectorView x) const override;
  double PredictProbability(SparseVectorView x) const override;
  void Reset() override;
  std::unique_ptr<Learner> Clone() const override;
  std::string name() const override { return inner_->name(); }
  size_t num_updates() const override { return inner_->num_updates(); }
  bool ExportWeightMagnitudes(std::vector<double>* out) const override;
  bool CompactFeatures(const std::vector<uint32_t>& old_to_new,
                       uint32_t new_dimension) override;

 private:
  std::unique_ptr<Learner> inner_;
  Ledger* ledger_;
};

class TimedReward final : public RewardFunction {
 public:
  TimedReward(std::unique_ptr<RewardFunction> inner, Ledger* ledger);

  bool requires_probe() const override { return inner_->requires_probe(); }
  double Compute(const RewardInputs& inputs) const override;
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<RewardFunction> Clone() const override;

 private:
  std::unique_ptr<RewardFunction> inner_;
  Ledger* ledger_;
};

class TimedIncrementalGrouper final : public IncrementalGrouper {
 public:
  TimedIncrementalGrouper(std::unique_ptr<IncrementalGrouper> inner,
                          Ledger* ledger);

  GroupingResult GroupBase(const Corpus& corpus, size_t base_size) override;
  IngestAssignment AssignOrSplit(const Corpus& corpus,
                                 uint32_t doc_index) override;
  size_t num_groups() const override { return inner_->num_groups(); }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<IncrementalGrouper> Clone() const override;

 private:
  std::unique_ptr<IncrementalGrouper> inner_;
  Ledger* ledger_;
};

}  // namespace perfbench
}  // namespace zombie

#endif  // ZOMBIE_PERFBENCH_DECORATORS_H_
