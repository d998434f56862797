#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ie {

/// Split on any of the delimiter characters; empty pieces are dropped.
std::vector<std::string_view> SplitString(std::string_view text,
                                          std::string_view delims);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Locale-independent, shortest round-trip decimal rendering of a double:
/// parsing the result back yields the exact same bit pattern, the decimal
/// separator is always '.' regardless of LC_NUMERIC, and the same value
/// always produces the same bytes. This is the only sanctioned way to
/// turn floating values into text on export paths (DESIGN.md §12); the
/// detlint `locale-format` rule rejects std::to_string / printf %f/%g /
/// iostream formatting there. Non-finite values render as "inf"/"-inf"/
/// "nan".
std::string FormatDouble(double value);
/// Appends FormatDouble(value) without the intermediate string.
void AppendFormattedDouble(std::string* out, double value);

/// FormatDouble specialized for JSON emission: JSON has no literal for
/// non-finite numbers, so inf/-inf/nan render as `null` (Chrome-trace and
/// metrics consumers treat missing samples and null alike). Finite values
/// are byte-identical to FormatDouble and round-trip exactly.
std::string FormatJsonNumber(double value);
void AppendJsonNumber(std::string* out, double value);

/// Appends `text` as a quoted JSON string: `"` and `\` are backslash-
/// escaped, every control character below 0x20 becomes `\u00XX`, and all
/// other bytes (multi-byte UTF-8 included) pass through unchanged.
void AppendJsonString(std::string* out, std::string_view text);

}  // namespace ie
