#ifndef ZOMBIE_UTIL_STRING_UTIL_H_
#define ZOMBIE_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace zombie {

/// Splits on any occurrence of `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII-only case fold.
std::string ToLowerAscii(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses all of `s` as a base-10 integer (optional leading '-'; no
/// whitespace, '+' or trailing characters). InvalidArgument when `s` is
/// empty, malformed or outside the int64 range.
StatusOr<int64_t> ParseInt64(std::string_view s);

/// Parses all of `s` as a finite decimal floating-point number (optional
/// leading '-', optional exponent). InvalidArgument when `s` is empty,
/// malformed, infinite, NaN or out of the double range.
StatusOr<double> ParseFiniteDouble(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));  // zombie-lint: allow(no-stdout)

}  // namespace zombie

#endif  // ZOMBIE_UTIL_STRING_UTIL_H_
