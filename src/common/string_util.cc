#include "common/string_util.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace privrec {

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

namespace {
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}
}  // namespace

std::vector<std::string_view> SplitWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  SplitWhitespace(s, &out);
  return out;
}

void SplitWhitespace(std::string_view s, std::vector<std::string_view>* out) {
  out->clear();
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsSpace(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && !IsSpace(s[i])) ++i;
    if (i > start) out->push_back(s.substr(start, i - start));
  }
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = Trim(s);
  if (s.empty() || s.size() > 31) return false;
  char buf[32];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty() || s.size() > 63) return false;
  char buf[64];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return false;
  *out = v;
  return true;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

int64_t EditDistance(std::string_view a, std::string_view b) {
  // Single-row dynamic program over the shorter string.
  if (a.size() < b.size()) std::swap(a, b);
  std::vector<int64_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = static_cast<int64_t>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    int64_t diag = row[0];
    row[0] = static_cast<int64_t>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      int64_t next = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

std::string FormatDouble(double x, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, x);
  return buf;
}

}  // namespace privrec
