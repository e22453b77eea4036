#pragma once
// Whole-token numeric flag values, shared by search_server and
// fuzz_invariants. A value is accepted only if the entire token parses:
// std::strtoull alone would wrap "-1" to 2^64-1 and read "abc" as 0, and
// std::atof reads "abc" as 0 — each of which a budget takes as "no limit".
// Each parser returns nullopt on a malformed value; the caller decides how
// to exit.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace catsched::tools {

/// Unsigned decimal: digits only, no sign, no trailing characters, in range.
inline std::optional<std::uint64_t> parse_count(const char* text) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || *end != '\0') return std::nullopt;
  return v;
}

/// Finite, non-negative seconds, with no trailing characters.
inline std::optional<double> parse_seconds(const char* text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v < 0.0) {
    return std::nullopt;
  }
  return v;
}

}  // namespace catsched::tools
