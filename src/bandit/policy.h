#ifndef ZOMBIE_BANDIT_POLICY_H_
#define ZOMBIE_BANDIT_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "bandit/arm_stats.h"
#include "util/random.h"

namespace zombie {

/// Multi-armed bandit selection strategy over index groups.
///
/// Contract: SelectArm is called only when stats.num_active() > 0 and must
/// return an active arm. Stateless policies read everything from ArmStats;
/// stateful ones (Exp3, Thompson) additionally track internal state via
/// Observe()/Reset().
class BanditPolicy {
 public:
  virtual ~BanditPolicy() = default;

  /// Prepares internal state for a run over `num_arms` arms. The engine
  /// calls this exactly once before the first SelectArm.
  virtual void Reset(size_t num_arms) { (void)num_arms; }

  /// Picks an active arm.
  virtual size_t SelectArm(const ArmStats& stats, Rng* rng) = 0;

  /// Reward notification for the arm just played (after ArmStats::Record).
  virtual void Observe(size_t arm, double reward) {
    (void)arm;
    (void)reward;
  }

  /// A new arm appeared mid-run (streaming ingestion: a group split or a
  /// brand-new group). Called after ArmStats::AddArm, so `arm` ==
  /// stats.num_arms() - 1 and per-arm state must grow to match before the
  /// next SelectArm/ScoreArms. The default no-op suits policies whose only
  /// per-arm state lives in ArmStats; stateful policies (Exp3, Thompson,
  /// SlidingUcb) override to append an entry that keeps ScoreArms
  /// deterministic — no RNG draws allowed here, for the same reason as
  /// ScoreArms.
  virtual void OnArmAdded(size_t arm) { (void)arm; }

  virtual std::string name() const = 0;

  /// Diagnostic view of the policy's current per-arm preference — the
  /// quantity SelectArm ranks by: reward means (default), UCB indices,
  /// posterior means, or choice probabilities. Resizes `out` to
  /// stats.num_arms(); inactive arms score 0. Must be cheap, must not
  /// mutate policy state, and must not draw randomness (the observability
  /// layer calls this per pull without touching the run's RNG stream —
  /// the decision-log determinism tests depend on that).
  virtual void ScoreArms(const ArmStats& stats, std::vector<double>* out) const;

  /// Fresh policy with identical hyperparameters and cleared state.
  virtual std::unique_ptr<BanditPolicy> Clone() const = 0;
};

/// Identifier for the shipped policies (bench/table axes).
enum class PolicyKind {
  kRoundRobin,
  kUniformRandom,
  kEpsilonGreedy,
  kUcb1,
  kSlidingUcb,
  kThompson,
  kExp3,
  kSoftmax,
};

const char* PolicyKindName(PolicyKind kind);

/// Instantiates a policy with its default hyperparameters.
std::unique_ptr<BanditPolicy> MakePolicy(PolicyKind kind);

namespace bandit_internal {
/// Uniform choice among active arms; shared by several policies.
/// Precondition: stats.num_active() > 0.
size_t PickUniformActive(const ArmStats& stats, Rng* rng);

/// First active arm with zero pulls, or num_arms() when all active arms
/// have been pulled (optimistic initialization pass).
size_t FirstUnpulledActive(const ArmStats& stats);
}  // namespace bandit_internal

}  // namespace zombie

#endif  // ZOMBIE_BANDIT_POLICY_H_
