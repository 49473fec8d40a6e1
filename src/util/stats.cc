#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace zombie {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  if (count_ == 1) {
    mean_ = x;
    min_ = x;
    max_ = x;
    m2_ = 0.0;
    return;
  }
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

void RunningStats::Reset() { *this = RunningStats(); }

void WindowedMean::Add(double x) {
  values_.push_back(x);
  sum_ += x;
  ++total_count_;
  if (values_.size() > window_) {
    sum_ -= values_.front();
    values_.pop_front();
  }
}

double WindowedMean::mean() const {
  if (values_.empty()) return 0.0;
  return sum_ / static_cast<double>(values_.size());
}

void WindowedMean::Reset() {
  values_.clear();
  sum_ = 0.0;
  total_count_ = 0;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  ZCHECK_GE(q, 0.0);
  ZCHECK_LE(q, 1.0);
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace zombie
