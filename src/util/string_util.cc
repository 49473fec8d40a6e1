#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace zombie {

namespace {

// std::from_chars over the whole of `s`: fails on an empty string,
// trailing characters or a value out of T's range.
template <typename T>
StatusOr<T> ParseWhole(std::string_view s, const char* what) {
  T value{};
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, value);
  if (s.empty() || r.ec != std::errc() || r.ptr != end) {
    return Status::InvalidArgument(
        StrFormat("'%.*s' is not %s", static_cast<int>(s.size()), s.data(),
                  what));
  }
  return value;
}

}  // namespace

StatusOr<int64_t> ParseInt64(std::string_view s) {
  return ParseWhole<int64_t>(s, "a 64-bit integer");
}

StatusOr<double> ParseFiniteDouble(std::string_view s) {
  StatusOr<double> v = ParseWhole<double>(s, "a finite number");
  if (v.ok() && !std::isfinite(v.value())) {
    return Status::InvalidArgument(
        StrFormat("'%.*s' is not a finite number", static_cast<int>(s.size()),
                  s.data()));
  }
  return v;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace zombie
