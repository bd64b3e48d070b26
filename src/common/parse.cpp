#include "common/parse.hpp"

#include "common/log.hpp"

namespace reno
{

std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty())
        return std::nullopt;
    constexpr std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t n = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const unsigned digit = unsigned(c - '0');
        if (n > (max - digit) / 10)
            return std::nullopt;
        n = n * 10 + digit;
    }
    if (n < lo || n > hi)
        return std::nullopt;
    return n;
}

std::optional<std::int64_t>
parseSigned(std::string_view text, std::int64_t lo, std::int64_t hi)
{
    const bool negative = !text.empty() && text.front() == '-';
    if (negative)
        text.remove_prefix(1);
    // The magnitude of the most negative value is one past the
    // largest positive one.
    const std::uint64_t limit =
        std::uint64_t(std::numeric_limits<std::int64_t>::max()) +
        (negative ? 1 : 0);
    const auto magnitude = parseUnsigned(text, negative ? 1 : 0, limit);
    if (!magnitude)
        return std::nullopt;
    const std::int64_t n =
        negative ? static_cast<std::int64_t>(0 - *magnitude)
                 : static_cast<std::int64_t>(*magnitude);
    if (n < lo || n > hi)
        return std::nullopt;
    return n;
}

std::uint64_t
parseUnsignedFlag(const char *flag, const std::string &text,
                  std::uint64_t lo, std::uint64_t hi)
{
    if (const auto n = parseUnsigned(text, lo, hi))
        return *n;
    // Bounds at or above an unsigned's range are representability
    // limits, not user-facing ones: name only the lower bound then.
    const std::string expected =
        hi < std::numeric_limits<unsigned>::max()
            ? strprintf("an integer in %llu..%llu",
                        static_cast<unsigned long long>(lo),
                        static_cast<unsigned long long>(hi))
            : strprintf("an integer >= %llu",
                        static_cast<unsigned long long>(lo));
    fatal("%s expects %s, got '%s'%s", flag, expected.c_str(),
          text.c_str(), parseUnsigned(text) ? " (out of range)" : "");
}

} // namespace reno
