#ifndef ZOMBIE_CORE_RUN_RESULT_H_
#define ZOMBIE_CORE_RUN_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/learning_curve.h"
#include "ml/metrics.h"

namespace zombie {

/// Why a run ended.
enum class StopReason {
  kPlateau,    // quality estimate converged (early stop)
  kDecline,    // quality clearly past its peak (early stop)
  kBudget,     // max_items exhausted
  kExhausted,  // corpus fully processed
};

const char* StopReasonName(StopReason reason);

/// Per-arm accounting for diagnostics and tests (did the bandit find the
/// rich groups?).
struct ArmSummary {
  size_t group_size = 0;
  size_t pulls = 0;
  double total_reward = 0.0;
  size_t positives_seen = 0;
};

/// Everything one inner-loop run produced.
struct RunResult {
  LearningCurve curve;

  size_t items_processed = 0;
  /// Virtual data-processing time of the selection loop itself.
  int64_t loop_virtual_micros = 0;
  /// Virtual cost of featurizing the holdout (one-time, per revision).
  int64_t holdout_virtual_micros = 0;
  /// Wall-clock time the run actually took (engine bookkeeping).
  int64_t wall_micros = 0;

  double final_quality = 0.0;
  BinaryMetrics final_metrics;
  StopReason stop_reason = StopReason::kExhausted;

  std::string policy_name;
  std::string grouper_name;
  std::string reward_name;
  std::string learner_name;

  std::vector<ArmSummary> arms;
  size_t positives_processed = 0;

  /// Total virtual time including the holdout featurization.
  int64_t total_virtual_micros() const {
    return loop_virtual_micros + holdout_virtual_micros;
  }

  /// One-line summary for logs.
  std::string ToString() const;

  /// Canonical rendering of every deterministic field (wall_micros is
  /// deliberately excluded): items/virtual-times/quality/stop/positives,
  /// one line per arm, then the full learning curve CSV with %.17g doubles.
  /// Byte-equality of fingerprints == run-level determinism; the store
  /// round-trip tests and the forced-ISA CI matrix (which asserts scalar,
  /// AVX2 and AVX-512 dispatch produce identical engine runs) both compare
  /// these.
  std::string Fingerprint() const;
};

}  // namespace zombie

#endif  // ZOMBIE_CORE_RUN_RESULT_H_
