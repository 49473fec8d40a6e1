#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/random.h"

namespace zombie {
namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it (1-based rank ceil(q*n)).
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (n - rank < kMinSamplesBeyondPercentile) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return samples[rank - 1];
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Digest::Add(std::string_view bytes) {
  // Length-prefixed so ("ab","c") and ("a","bc") differ.
  state_ = HashCombine(state_, bytes.size());
  state_ = HashCombine(state_, HashBytes(bytes.data(), bytes.size()));
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = correct ? "{\"correct\": true" : "{\"correct\": false";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  out += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
}  // namespace zombie
