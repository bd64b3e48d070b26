/**
 * @file
 * Strict decimal parsing for command-line and environment values and
 * for the on-disk cache formats. strtol-style parsing stops at the
 * first non-digit and silently accepts "2x" as 2; these helpers accept
 * a value only when the whole string is a decimal integer inside the
 * requested range.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace reno
{

/**
 * Parse all of @p text as a decimal integer in [@p lo, @p hi].
 * Returns nullopt for an empty string, a sign, whitespace, trailing
 * characters, overflow or an out-of-range value.
 */
std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t lo = 0,
              std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/**
 * The signed counterpart of parseUnsigned(): all of @p text as an
 * optional '-' followed by decimal digits, in [@p lo, @p hi]. "+5",
 * "-" and "-0" are rejected, so every accepted value has one
 * spelling, the one printf's %lld writes.
 */
std::optional<std::int64_t>
parseSigned(std::string_view text,
            std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
            std::int64_t hi = std::numeric_limits<std::int64_t>::max());

/**
 * parseUnsigned() for the value of command-line flag @p flag:
 * fatal() naming the flag, the accepted range and the offending
 * value when @p text is not a valid integer in [@p lo, @p hi].
 */
std::uint64_t
parseUnsignedFlag(const char *flag, const std::string &text,
                  std::uint64_t lo = 0,
                  std::uint64_t hi =
                      std::numeric_limits<std::uint64_t>::max());

} // namespace reno
