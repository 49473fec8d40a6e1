#include "decorators.h"

#include <utility>

namespace zombie {
namespace perfbench {

TimedPolicy::TimedPolicy(std::unique_ptr<BanditPolicy> inner, Ledger* ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

void TimedPolicy::Reset(size_t num_arms) {
  ScopedOp t(ledger_, Op::kBanditOther);
  inner_->Reset(num_arms);
}

size_t TimedPolicy::SelectArm(const ArmStats& stats, Rng* rng) {
  ScopedOp t(ledger_, Op::kBanditSelect);
  return inner_->SelectArm(stats, rng);
}

void TimedPolicy::Observe(size_t arm, double reward) {
  ScopedOp t(ledger_, Op::kBanditOther);
  inner_->Observe(arm, reward);
}

void TimedPolicy::OnArmAdded(size_t arm) {
  ScopedOp t(ledger_, Op::kBanditOther);
  inner_->OnArmAdded(arm);
}

void TimedPolicy::ScoreArms(const ArmStats& stats,
                            std::vector<double>* out) const {
  ScopedOp t(ledger_, Op::kBanditScoreArms);
  inner_->ScoreArms(stats, out);
}

std::unique_ptr<BanditPolicy> TimedPolicy::Clone() const {
  ScopedOp t(ledger_, Op::kBanditOther);
  return std::make_unique<TimedPolicy>(inner_->Clone(), ledger_);
}

TimedLearner::TimedLearner(std::unique_ptr<Learner> inner, Ledger* ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

void TimedLearner::Update(SparseVectorView x, int32_t y) {
  ScopedOp t(ledger_, Op::kMlUpdate);
  inner_->Update(x, y);
}

double TimedLearner::Score(SparseVectorView x) const {
  ScopedOp t(ledger_, Op::kMlScore);
  return inner_->Score(x);
}

int32_t TimedLearner::Predict(SparseVectorView x) const {
  ScopedOp t(ledger_, Op::kMlScore);
  return inner_->Predict(x);
}

double TimedLearner::PredictProbability(SparseVectorView x) const {
  ScopedOp t(ledger_, Op::kMlScore);
  return inner_->PredictProbability(x);
}

void TimedLearner::Reset() {
  ScopedOp t(ledger_, Op::kMlOther);
  inner_->Reset();
}

std::unique_ptr<Learner> TimedLearner::Clone() const {
  ScopedOp t(ledger_, Op::kMlOther);
  return std::make_unique<TimedLearner>(inner_->Clone(), ledger_);
}

bool TimedLearner::ExportWeightMagnitudes(std::vector<double>* out) const {
  ScopedOp t(ledger_, Op::kMlOther);
  return inner_->ExportWeightMagnitudes(out);
}

bool TimedLearner::CompactFeatures(const std::vector<uint32_t>& old_to_new,
                                   uint32_t new_dimension) {
  ScopedOp t(ledger_, Op::kMlOther);
  return inner_->CompactFeatures(old_to_new, new_dimension);
}

TimedReward::TimedReward(std::unique_ptr<RewardFunction> inner,
                         Ledger* ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

double TimedReward::Compute(const RewardInputs& inputs) const {
  ScopedOp t(ledger_, Op::kCoreReward);
  return inner_->Compute(inputs);
}

std::unique_ptr<RewardFunction> TimedReward::Clone() const {
  ScopedOp t(ledger_, Op::kCoreOther);
  return std::make_unique<TimedReward>(inner_->Clone(), ledger_);
}

TimedIncrementalGrouper::TimedIncrementalGrouper(
    std::unique_ptr<IncrementalGrouper> inner, Ledger* ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

GroupingResult TimedIncrementalGrouper::GroupBase(const Corpus& corpus,
                                                  size_t base_size) {
  ScopedOp t(ledger_, Op::kIndexOther);
  return inner_->GroupBase(corpus, base_size);
}

IngestAssignment TimedIncrementalGrouper::AssignOrSplit(const Corpus& corpus,
                                                        uint32_t doc_index) {
  ScopedOp t(ledger_, Op::kIndexAssign);
  IngestAssignment out = inner_->AssignOrSplit(corpus, doc_index);
  if (ledger_ != nullptr) ledger_->AddNewArms(out.new_groups.size());
  return out;
}

std::unique_ptr<IncrementalGrouper> TimedIncrementalGrouper::Clone() const {
  ScopedOp t(ledger_, Op::kIndexOther);
  return std::make_unique<TimedIncrementalGrouper>(inner_->Clone(), ledger_);
}

}  // namespace perfbench
}  // namespace zombie
