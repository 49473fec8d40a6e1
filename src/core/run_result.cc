#include "core/run_result.h"

#include "util/clock.h"
#include "util/string_util.h"

namespace zombie {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kPlateau:
      return "plateau";
    case StopReason::kDecline:
      return "decline";
    case StopReason::kBudget:
      return "budget";
    case StopReason::kExhausted:
      return "exhausted";
  }
  return "?";
}

std::string RunResult::ToString() const {
  return StrFormat(
      "[%s/%s/%s/%s] items=%zu vtime=%s quality=%.3f stop=%s",
      policy_name.c_str(), grouper_name.c_str(), reward_name.c_str(),
      learner_name.c_str(), items_processed,
      FormatDuration(total_virtual_micros()).c_str(), final_quality,
      StopReasonName(stop_reason));
}

std::string RunResult::Fingerprint() const {
  std::string s = StrFormat(
      "items=%zu loop=%lld holdout=%lld q=%.17g stop=%s pos=%zu\n",
      items_processed, static_cast<long long>(loop_virtual_micros),
      static_cast<long long>(holdout_virtual_micros), final_quality,
      StopReasonName(stop_reason), positives_processed);
  for (const ArmSummary& a : arms) {
    s += StrFormat("arm %zu %zu %.17g %zu\n", a.group_size, a.pulls,
                   a.total_reward, a.positives_seen);
  }
  s += curve.ToCsv();
  return s;
}

}  // namespace zombie
