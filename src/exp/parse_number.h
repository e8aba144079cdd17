// Strict number parsing for command-line flag values.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace phantom::exp {

/// Parses all of `text` as a T, or throws std::invalid_argument. The
/// whole value must be one number in T's range: "3x", "40Mb" and ""
/// are refused, an unsigned T takes no sign ("-1" is not 2^64 - 1), and
/// a floating-point T must be finite (a range check written as `x <= 0`
/// is false for NaN).
template <typename T>
T parse_number(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) throw std::invalid_argument{"not a number: " + text};
  return value;
}

}  // namespace phantom::exp
