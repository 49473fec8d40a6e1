#ifndef ZOMBIE_PERFBENCH_LEDGER_H_
#define ZOMBIE_PERFBENCH_LEDGER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace zombie {
namespace perfbench {

/// The repository modules the traced run splits wall time across.
enum class Layer : uint8_t { kIndex, kFeatureeng, kMl, kBandit, kCore, kObs };
inline constexpr size_t kNumLayers = 6;
const char* LayerName(Layer layer);

/// A call into one module's public interface, timed from the benchmark's
/// own files (a decorator or a direct call site).
enum class Op : uint8_t {
  kIndexAssign,     // IncrementalGrouper::AssignOrSplit
  kIndexOther,      // IncrementalGrouper::Clone and the rest
  kMlScore,         // Learner::Score / Predict / PredictProbability
  kMlUpdate,        // Learner::Update
  kMlOther,         // Learner::Clone, CompactFeatures, ...
  kBanditSelect,    // BanditPolicy::SelectArm
  kBanditScoreArms, // BanditPolicy::ScoreArms
  kBanditOther,     // BanditPolicy::Observe, Reset, OnArmAdded, Clone
  kCoreReward,      // RewardFunction::Compute
  kCoreOther,       // RewardFunction::Clone
  kObsSerialize,    // DecisionLog::ToJsonl
};
inline constexpr size_t kNumOps = 11;
const char* OpName(Op op);
Layer OpLayer(Op op);

struct OpTotals {
  uint64_t calls = 0;
  int64_t nanos = 0;
};

/// One recorded interval, relative to the ledger's epoch. Every span of a
/// unit of work (a session or a grid pass) carries that unit's id.
struct Span {
  int64_t start_nanos = 0;
  int64_t duration_nanos = 0;
  uint32_t unit = 0;
  Op op = Op::kCoreOther;
};

/// Per-operation call counts and busy time for the traced run, plus the
/// spans of the current unit kept in memory (up to a fixed capacity) and
/// written out once at exit. Timed operations never nest inside one
/// another — every workload is a single closed-loop caller and no decorated
/// interface calls another decorated one — so each interval is counted
/// exactly once and a layer's self time is the sum of its operations.
/// Single-threaded.
class Ledger {
 public:
  explicit Ledger(size_t span_capacity = 200000);

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  int64_t NowNanos() const;

  void Record(Op op, int64_t start_nanos, int64_t end_nanos);
  /// Arms opened by AssignOrSplit (index.new_arms).
  void AddNewArms(uint64_t n) { new_arms_ += n; }

  /// Starts unit `unit`: the kept spans restart (the file holds the last
  /// unit) and the unit's own interval opens.
  void BeginUnit(uint32_t unit);
  void EndUnit();

  /// Zeroes the totals (after set-up and warm-up).
  void ResetTotals();

  const OpTotals& totals(Op op) const {
    return totals_[static_cast<size_t>(op)];
  }
  uint64_t new_arms() const { return new_arms_; }
  size_t dropped_spans() const { return dropped_spans_; }

  /// Chrome trace-event JSON (loads in Perfetto) of the last unit's spans.
  [[nodiscard]] Status WriteSpans(const std::string& path) const;

 private:
  int64_t epoch_nanos_;
  std::array<OpTotals, kNumOps> totals_{};
  uint64_t new_arms_ = 0;
  size_t span_capacity_;
  std::vector<Span> spans_;
  size_t dropped_spans_ = 0;
  uint32_t unit_ = 0;
  int64_t unit_start_nanos_ = 0;
  int64_t unit_end_nanos_ = 0;
};

/// Times one call into `op` for its lexical scope; a null ledger times
/// nothing.
class ScopedOp {
 public:
  ScopedOp(Ledger* ledger, Op op)
      : ledger_(ledger),
        op_(op),
        start_(ledger != nullptr ? ledger->NowNanos() : 0) {}
  ~ScopedOp() {
    if (ledger_ != nullptr) ledger_->Record(op_, start_, ledger_->NowNanos());
  }

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  Ledger* ledger_;
  Op op_;
  int64_t start_;
};

}  // namespace perfbench
}  // namespace zombie

#endif  // ZOMBIE_PERFBENCH_LEDGER_H_
