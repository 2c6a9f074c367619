// Minimal string helpers for parsers and report printers.

#ifndef PRIVREC_COMMON_STRING_UTIL_H_
#define PRIVREC_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace privrec {

// Splits on a single delimiter character; empty fields are kept
// ("a,,b" -> {"a", "", "b"}). An empty input yields one empty field.
std::vector<std::string_view> Split(std::string_view s, char delim);

// Splits on any run of whitespace; empty fields are dropped.
std::vector<std::string_view> SplitWhitespace(std::string_view s);
// Same, into `*out` (cleared first), so a caller splitting line after
// line reuses one vector.
void SplitWhitespace(std::string_view s, std::vector<std::string_view>* out);

// Strips leading/trailing whitespace (space, tab, CR, LF).
std::string_view Trim(std::string_view s);

// Strict numeric parsers: the whole (trimmed) string must be consumed.
// Return false on any violation, leaving *out untouched.
bool ParseInt64(std::string_view s, int64_t* out);
bool ParseDouble(std::string_view s, double* out);

// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);

// Levenshtein edit distance (insert/delete/substitute, unit costs); used
// for "did you mean" suggestions on typo'd flag names.
int64_t EditDistance(std::string_view a, std::string_view b);

// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double x, int digits);

}  // namespace privrec

#endif  // PRIVREC_COMMON_STRING_UTIL_H_
