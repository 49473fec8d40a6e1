#ifndef ZOMBIE_UTIL_CLOCK_H_
#define ZOMBIE_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace zombie {

/// Deterministic simulated time source, in microseconds.
///
/// The Zombie engine charges each processed item its (corpus-assigned)
/// feature-extraction cost against a VirtualClock instead of burning real
/// CPU. This makes every "time to quality" number in tests and benches
/// exactly reproducible while preserving the cost *ratios* that determine
/// the paper's speedup shapes (see DESIGN.md, substitutions table).
class VirtualClock {
 public:
  VirtualClock() = default;

  /// Advances simulated time; cost must be non-negative.
  void Advance(int64_t micros);

  /// Current simulated time since construction/Reset, in microseconds.
  int64_t NowMicros() const { return now_micros_; }

  /// Simulated seconds as a double.
  double NowSeconds() const { return static_cast<double>(now_micros_) / 1e6; }

  void Reset() { now_micros_ = 0; }

 private:
  int64_t now_micros_ = 0;
};

/// Wall-clock stopwatch for reporting real execution overhead (index
/// construction, engine bookkeeping) alongside virtual time.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  /// Elapsed wall time in microseconds since construction or Restart().
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Renders a duration like "1h23m" / "4m05s" / "12.3s" / "870ms" for tables.
std::string FormatDuration(int64_t micros);

}  // namespace zombie

#endif  // ZOMBIE_UTIL_CLOCK_H_
