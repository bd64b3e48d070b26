/**
 * @file
 * The flag table every command-line driver reads argv through. A flag
 * is declared once -- spelling, arity, help line, setter -- and
 * parse() makes one strict pass over argv, running setters in argv
 * order:
 *
 *   --flag          a flag without a value; "--flag=x" is unknown
 *   --flag VALUE    a value flag, also "--flag=VALUE"; the next token
 *                   is its value, whatever it looks like
 *   --flag[=VALUE]  an optional value; never takes the next token
 *   --help, -h      print usage generated from the table, exit 0
 *   OPERAND         a token without a leading '-', if one is declared
 *
 * Anything else stops with "unknown argument '...' (try --help)",
 * exit 1. Flag families (sweep/selection.hpp, sweep/campaign.hpp,
 * obs/session.hpp) register their flags into a driver's table; a check
 * that involves two flags runs after parse(), in the code that owns
 * them.
 */
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hpp"

namespace reno
{

class FlagTable
{
  public:
    /** Value of an optional-value flag: nullopt without "=VALUE". */
    using OptionalValue = std::optional<std::string>;

    /** List the flags declared after this call under @p heading. */
    void section(std::string heading) { section_ = std::move(heading); }

    /** A flag without a value. */
    void flag(std::string name, std::string help,
              std::function<void()> set);

    /** A flag without a value that sets @p *on. */
    void flag(std::string name, std::string help, bool *on);

    /** A flag with a value, "--name VALUE" or "--name=VALUE". */
    void value(std::string name, std::string metavar, std::string help,
               std::function<void(const std::string &)> set);

    /** A value flag stored verbatim into @p *out. */
    void value(std::string name, std::string metavar, std::string help,
               std::string *out);

    /** A value flag naming a file, stored into @p *out; an empty
     *  path is fatal(). */
    void file(std::string name, std::string help, std::string *out);

    /** A flag with an optional "=VALUE". */
    void optionalValue(std::string name, std::string metavar,
                       std::string help,
                       std::function<void(const OptionalValue &)> set);

    /** A value flag holding a decimal integer in [@p lo, @p hi],
     *  parsed by parseUnsignedFlag() into @p *out. */
    template <std::unsigned_integral T>
    void
    number(std::string name, std::string metavar, std::string help,
           T *out, std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<T>::max())
    {
        const std::string flag = name;
        value(std::move(name), std::move(metavar), std::move(help),
              [flag, out, lo, hi](const std::string &v) {
                  *out = static_cast<T>(
                      parseUnsignedFlag(flag.c_str(), v, lo, hi));
              });
    }

    /** The operand: every token that does not start with '-'. */
    void positional(std::string metavar, std::string help,
                    std::function<void(const std::string &)> set);

    /** One strict pass over argv[1..argc) (see the file doc). */
    void parse(int argc, const char *const *argv);

    /** The --help text of @p program, generated from the table. */
    std::string usage(const std::string &program) const;

  private:
    enum class Arity { None, Value, Optional };

    struct Flag {
        std::string name;  //!< "" for the positional operand
        Arity arity;
        std::string metavar, help, section;
        std::function<void(const OptionalValue &)> set;
    };

    void add(Flag flag);
    const Flag *find(const std::string &name) const;

    std::vector<Flag> flags_;
    std::string section_;
};

} // namespace reno
