#ifndef ZOMBIE_PERFBENCH_REPORT_H_
#define ZOMBIE_PERFBENCH_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace zombie {
namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile; with fewer
/// the percentile is noise and is refused.
inline constexpr size_t kMinSamplesBeyondPercentile = 10;

/// Nearest-rank q-quantile (q in (0, 1)) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyondPercentile samples rank above it — p90
/// therefore needs at least 100 samples.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Metric names: 1 to 64 characters from letters, digits, '_', '.', '-',
/// starting with a letter or digit.
bool ValidMetricName(std::string_view name);

/// Order-sensitive 64-bit digest of a sequence of byte strings, rendered
/// as 16 hex digits. Used for every output check.
class Digest {
 public:
  void Add(std::string_view bytes);
  std::string Hex() const;

 private:
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}, values printed with all 17
/// significant digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench
}  // namespace zombie

#endif  // ZOMBIE_PERFBENCH_REPORT_H_
