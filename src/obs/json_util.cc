#include "obs/json_util.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace zombie {
namespace obs_internal {

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendJsonNumber(std::string* out, double v) {
  if (std::isnan(v)) {
    *out += "0";
    return;
  }
  if (std::isinf(v)) {
    *out += v > 0 ? "1e308" : "-1e308";
    return;
  }
  // %.17g round-trips every double; trim to a plain integer form when the
  // value is integral and small enough to matter for readability (the
  // magnitude test comes first so the cast never overflows). std::to_chars
  // writes exactly what %lld / %.17g would ("C" locale, same precision and
  // exponent form) without printf's format parsing.
  char buf[32];
  char* const end = buf + sizeof(buf);
  const bool integral = std::fabs(v) < 1e15 &&
                        v == static_cast<double>(static_cast<long long>(v));
  const std::to_chars_result res =
      integral ? std::to_chars(buf, end, static_cast<long long>(v))
               : std::to_chars(buf, end, v, std::chars_format::general, 17);
  out->append(buf, res.ptr);
}

Status WriteFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open for write: " + path);
  }
  size_t written = std::fwrite(data.data(), 1, data.size(), f);
  int close_err = std::fclose(f);
  if (written != data.size() || close_err != 0) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

}  // namespace obs_internal
}  // namespace zombie
