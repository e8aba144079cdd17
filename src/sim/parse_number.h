// Strict number parsing for command-line flag values and fault-plan
// fields, and the exact text forms that read back to the same value.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "sim/time.h"

namespace phantom::sim {

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

/// `ms` milliseconds as a Time, rounded as Time::from_seconds rounds, or
/// std::invalid_argument when the nanosecond count does not fit a Time
/// (2^63 ns either way, about 292 years).
[[nodiscard]] inline Time time_from_ms(double ms) {
  // Time::from_seconds's own rounding arithmetic, before its cast.
  if (!(std::abs(ms / 1e3 * 1e9) + 0.5 < 0x1p63)) {
    throw std::invalid_argument{"milliseconds beyond sim::Time's range"};
  }
  return Time::from_seconds(ms / 1e3);
}

/// Exact decimal milliseconds of a Time >= 0: integer nanoseconds have
/// at most six fractional ms digits, so the rendering loses nothing and
/// time_from_ms(parse_number<double>(...)) recovers the identical Time.
[[nodiscard]] inline std::string format_ms(Time t) {
  const std::int64_t ns = t.nanoseconds();
  std::string out = std::to_string(ns / 1'000'000);
  if (const std::int64_t frac = ns % 1'000'000; frac != 0) {
    const std::string digits = std::to_string(1'000'000 + frac);  // 1dddddd
    out += '.' + digits.substr(1, digits.find_last_not_of('0'));
  }
  return out;
}

/// The shortest text that parse_number<T> reads back as `v`.
template <typename T>
[[nodiscard]] std::string format_number(T v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

}  // namespace phantom::sim
