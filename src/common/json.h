// JSON scalar text shared by every writer (sweep sinks, metrics
// snapshots, trace-span export), so they quote and format alike.
#ifndef STAGEDCMP_COMMON_JSON_H_
#define STAGEDCMP_COMMON_JSON_H_

#include <cmath>
#include <cstdio>
#include <string>

namespace stagedcmp {

/// `s` as a JSON string literal: quotes around, `"` and `\` escaped.
inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// Round-trip-exact double formatting; the shortest %.17g form is stable
/// across runs and thread counts because the underlying bits are.
/// Non-finite values, which JSON cannot carry, print as `null`.
inline std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_JSON_H_
