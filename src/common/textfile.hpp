/**
 * @file
 * Small text files: whole-file read and checked write, an atomic keyed
 * store for the result and checkpoint caches, and the line format
 * those caches share -- "key field field ...\n", fields separated by
 * single spaces, integers in decimal, bools as 0/1.
 *
 * putLine() writes that format and LineReader reads it back, failing
 * closed: a line must carry exactly the expected key and one token
 * per field, each a strict decimal in the field type's range
 * (common/parse.hpp), and a length-prefixed in-line list must hold
 * exactly that many tokens. Nothing is sized from a count read from
 * the file, so a corrupt count fails the read instead of allocating.
 */
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "common/parse.hpp"

namespace reno
{

/** Read all of @p path into @p out; false when it cannot be read. */
bool readTextFile(const std::string &path, std::string *out);

/** Write @p text to @p path, replacing it. Checks the write and the
 *  close (where a full disk often shows); on failure warns naming
 *  @p path and the error and returns false. */
bool writeTextFile(const std::string &path, const std::string &text);

/**
 * A directory of small text files named <16 hex digits of key><ext>.
 * A write goes to a temporary unique to the writer (process id plus a
 * per-process counter) and is renamed into place, so readers never see
 * a torn file and concurrent writers of one key -- threads or
 * processes sharing the directory -- never rename each other's
 * half-written file. An empty directory disables the store.
 */
class TextFileStore
{
  public:
    /** @param what  names the store in warnings. */
    TextFileStore(std::string dir, const char *what);

    bool enabled() const { return !dir_.empty(); }

    /**
     * Read the entry of @p key and hand it to @p decode, a
     * bool(const std::string &text, std::string *why). A missing entry
     * is a plain miss; one @p decode rejects is warned about with its
     * reason and ignored, so the caller recomputes (and rewrites) it.
     */
    template <typename Decode>
    bool
    load(std::uint64_t key, const char *ext, Decode &&decode) const
    {
        if (!enabled())
            return false;
        const std::string file = path(key, ext);
        std::string text, why;
        if (!readTextFile(file, &text))
            return false;
        if (decode(text, &why))
            return true;
        warn("%s: ignoring malformed entry %s (%s)", what_, file.c_str(),
             why.c_str());
        return false;
    }

    /** Atomically write the entry of @p key; warns on failure. */
    void store(std::uint64_t key, const char *ext,
               const std::string &text) const;

  private:
    std::string path(std::uint64_t key, const char *ext) const;

    std::string dir_;
    const char *what_;
};

inline void
putField(std::string &out, std::string_view text)
{
    out += ' ';
    out += text;
}

template <std::integral T>
void
putField(std::string &out, T value)
{
    out += ' ';
    out += std::to_string(value);
}

/** Every element of an integer range, one field each. */
template <std::ranges::input_range R>
    requires std::integral<std::ranges::range_value_t<R>> &&
             (!std::same_as<std::ranges::range_value_t<R>, char>)
void
putField(std::string &out, const R &values)
{
    for (const auto v : values)
        putField(out, v);
}

/** Append "@p key field field ...\n" to @p out: integers in decimal,
 *  bools as 0/1, text verbatim, an integer range element by element. */
template <typename... Fields>
void
putLine(std::string &out, std::string_view key, const Fields &...fields)
{
    out += key;
    (putField(out, fields), ...);
    out += '\n';
}

/** A length-prefixed in-line list field for LineReader::next. */
template <typename T, typename As>
struct ListField {
    const std::uint64_t &count;
    std::vector<T> &items;
};

/** The rest of the line as exactly @p count items, each parsed as
 *  @c As (default: the element type) into @p items. Bind @p count to
 *  a field read earlier on the same line. */
template <typename As = void, typename T>
ListField<T, std::conditional_t<std::is_void_v<As>, T, As>>
listOf(const std::uint64_t &count, std::vector<T> &items)
{
    return {count, items};
}

/** Strict reader over '\n'-terminated putLine() lines. */
class LineReader
{
  public:
    explicit LineReader(std::string_view text) : text_(text) {}

    /** Consume the next line if it is exactly @p line. */
    bool expectLine(std::string_view line);

    /**
     * Consume the next line as @p key followed by one token per field,
     * parsed left to right into integers, bools, std::string_view (any
     * token, viewing the text), std::span<std::uint64_t> (one token per
     * element) or a listOf() list. Fails when the key differs or a
     * token is missing, malformed or left over; fields may then hold
     * partial values.
     */
    template <typename... Fields>
    bool
    next(std::string_view key, Fields &&...fields)
    {
        std::string_view rest;
        if (!takeLine(&rest) || !rest.starts_with(key))
            return fail(key);
        rest.remove_prefix(key.size());
        if (!(parseField(rest, fields) && ...) || !rest.empty())
            return fail(key);
        return true;
    }

    /** True when every line was consumed; otherwise records an error. */
    bool finish();

    /** The first failure: line number and what was expected there.
     *  Empty while every read succeeded. */
    const std::string &error() const { return error_; }

  private:
    /** Take " token" off the front of @p rest. */
    static bool
    take(std::string_view &rest, std::string_view *token)
    {
        if (!rest.starts_with(' '))
            return false;
        rest.remove_prefix(1);
        *token = rest.substr(0, rest.find(' '));
        rest.remove_prefix(token->size());
        return true;
    }

    template <typename T>
        requires std::integral<T> || std::same_as<T, std::string_view>
    static bool
    parseField(std::string_view &rest, T &value)
    {
        std::string_view token;
        if (!take(rest, &token))
            return false;
        if constexpr (std::same_as<T, std::string_view>) {
            value = token;
            return true;
        } else if constexpr (std::same_as<T, bool>) {
            value = token == "1";
            return token == "0" || token == "1";
        } else if constexpr (std::is_signed_v<T>) {
            const auto n = parseSigned(token, std::numeric_limits<T>::min(),
                                       std::numeric_limits<T>::max());
            value = static_cast<T>(n.value_or(0));
            return n.has_value();
        } else {
            const auto n =
                parseUnsigned(token, 0, std::numeric_limits<T>::max());
            value = static_cast<T>(n.value_or(0));
            return n.has_value();
        }
    }

    static bool
    parseField(std::string_view &rest, std::span<std::uint64_t> values)
    {
        for (std::uint64_t &v : values) {
            if (!parseField(rest, v))
                return false;
        }
        return true;
    }

    template <typename T, typename As>
    static bool
    parseField(std::string_view &rest, const ListField<T, As> &list)
    {
        list.items.clear();
        for (std::uint64_t i = 0; i < list.count; ++i) {
            As value{};
            if (!parseField(rest, value))
                return false;
            list.items.push_back(static_cast<T>(value));
        }
        return true;
    }

    bool takeLine(std::string_view *line);
    bool fail(std::string_view expected);

    std::string_view text_;
    std::size_t pos_ = 0;
    unsigned lineNo_ = 0;
    std::string error_;
};

} // namespace reno
