// Strict numeric flag values for the command-line tools: the whole argument
// must be one number that fits T. Non-numeric text, trailing characters,
// a sign on an unsigned type and out-of-range values all fail, where atoi
// would truncate, wrap or silently read 0.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <system_error>
#include <type_traits>

template <typename T>
bool parse_number(const char* s, T& out) {
  const char* end = s + std::strlen(s);
  T v{};
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}
