#ifndef ZOMBIE_OBS_JSON_UTIL_H_
#define ZOMBIE_OBS_JSON_UTIL_H_

#include <array>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace zombie {
namespace obs_internal {

/// Escapes `in` for use inside a JSON string literal (quotes not included).
std::string JsonEscape(const std::string& in);

/// Appends a JSON-legal number: full round-trip precision for finite
/// values; non-finite values (which JSON cannot represent) are clamped to
/// +/-1e308 and NaN becomes 0. Metric and score values are informational,
/// so a clamped extreme beats an unparseable file.
void AppendJsonNumber(std::string* out, double v);

/// AppendJsonNumber for a serializer that writes the same values over and
/// over: a direct-mapped table, keyed by a double's bit pattern, holds the
/// text AppendJsonNumber wrote for those bits. A hit appends that text, so
/// the bytes are AppendJsonNumber's (equal bits, equal text); a miss calls
/// AppendJsonNumber and keeps what it wrote, evicting the slot's old value.
/// Only the 17-digit form is memoized: integral, NaN and infinite values
/// are cheap to write and go straight through. One memo serves one
/// serialization on one thread.
class JsonNumberMemo {
 public:
  void Append(std::string* out, double v);

 private:
  static constexpr int kSlotBits = 8;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;
  /// Longest 17-digit text: "-1.2345678901234567e-308".
  static constexpr size_t kMaxText = 24;
  struct Slot {
    uint64_t bits = 0;
    uint8_t len = 0;  // 0: empty
    char text[kMaxText];
  };
  std::array<Slot, kSlots> slots_{};
};

/// Writes `data` to `path` atomically enough for CI artifacts (plain
/// truncate-and-write); returns IOError on failure.
[[nodiscard]] Status WriteFile(const std::string& path,
                               const std::string& data);

}  // namespace obs_internal
}  // namespace zombie

#endif  // ZOMBIE_OBS_JSON_UTIL_H_
