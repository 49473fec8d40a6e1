#ifndef ZOMBIE_UTIL_STATS_H_
#define ZOMBIE_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace zombie {

/// Streaming mean/variance accumulator (Welford). Numerically stable for
/// long reward streams.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean; 0 for fewer than two samples.
  double stderr_mean() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  void Reset();

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean over the last `window` observations; used by bandit arm statistics
/// to track non-stationary rewards (a group's usefulness decays as its good
/// items are consumed).
class WindowedMean {
 public:
  /// `window` must be positive.
  explicit WindowedMean(size_t window) : window_(window) {}

  void Add(double x);
  double mean() const;
  size_t count() const { return values_.size(); }
  size_t total_count() const { return total_count_; }
  void Reset();

 private:
  size_t window_;
  std::deque<double> values_;
  double sum_ = 0.0;
  size_t total_count_ = 0;
};

/// Basic descriptive statistics over a finished sample.
double Mean(const std::vector<double>& xs);
double Variance(const std::vector<double>& xs);  // n-1 denominator
double StdDev(const std::vector<double>& xs);
double Median(std::vector<double> xs);           // by value: sorts a copy
/// Linear-interpolated quantile, q in [0,1].
double Quantile(std::vector<double> xs, double q);

}  // namespace zombie

#endif  // ZOMBIE_UTIL_STATS_H_
