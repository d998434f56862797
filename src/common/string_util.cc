#include "common/string_util.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace ie {

std::vector<std::string_view> SplitString(std::string_view text,
                                          std::string_view delims) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || delims.find(text[i]) != std::string_view::npos) {
      if (i > start) out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendFormattedDouble(std::string* out, double value) {
  if (std::isnan(value)) {
    out->append("nan");
    return;
  }
  if (std::isinf(value)) {
    out->append(value < 0.0 ? "-inf" : "inf");
    return;
  }
  // std::to_chars is locale-independent by specification and emits the
  // shortest decimal string that parses back to exactly `value` — the two
  // properties %g/%f/to_string cannot give (they honor LC_NUMERIC and
  // truncate to a fixed precision). 32 chars covers the worst case
  // (-2.2250738585072014e-308 is 24).
  char buf[32];
  const auto rc = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, rc.ptr);
}

std::string FormatDouble(double value) {
  std::string out;
  AppendFormattedDouble(&out, value);
  return out;
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  AppendFormattedDouble(out, value);
}

std::string FormatJsonNumber(double value) {
  std::string out;
  AppendJsonNumber(&out, value);
  return out;
}

void AppendJsonString(std::string* out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (byte < 0x20) {
      out->append("\\u00");
      out->push_back(kHex[byte >> 4]);
      out->push_back(kHex[byte & 0xf]);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace ie
