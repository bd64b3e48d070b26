/**
 * @file
 * Tests for the command-line flag table: both spellings of a value
 * flag, optional values that never take the next token, values that
 * are never read as flags, strict numbers, the positional operand,
 * unknown arguments, duplicate registration, and the --help text
 * generated from the declarations.
 */
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "parse_args.hpp"

using namespace reno;

namespace
{

/** One flag of every arity, recording what parse() hands them. */
struct Recorded {
    bool on = false;
    std::vector<std::string> values;
    std::vector<FlagTable::OptionalValue> optionals;
    unsigned count = 7;
    std::vector<std::string> operands;
};

FlagTable
recordingTable(Recorded *r, bool with_operand = false)
{
    FlagTable table;
    table.flag("--on", "a switch", &r->on);
    table.value("--name", "V", "a value (repeatable)",
                [r](const std::string &v) { r->values.push_back(v); });
    table.optionalValue("--opt", "V", "an optional value",
                        [r](const FlagTable::OptionalValue &v) {
                            r->optionals.push_back(v);
                        });
    table.number("--count", "N", "a number in 1..9", &r->count, 1, 9);
    if (with_operand) {
        table.positional("ARG", "the operand",
                         [r](const std::string &v) {
                             r->operands.push_back(v);
                         });
    }
    return table;
}

Recorded
parse(std::vector<const char *> args, bool with_operand = false)
{
    Recorded r;
    FlagTable table = recordingTable(&r, with_operand);
    parseArgs(table, std::move(args));
    return r;
}

} // namespace

TEST(FlagTable, ValueFlagTakesBothSpellings)
{
    const Recorded r =
        parse({"--name", "a", "--name=b", "--name=", "--name=x=y"});
    EXPECT_EQ(r.values,
              (std::vector<std::string>{"a", "b", "", "x=y"}));
    EXPECT_FALSE(r.on);
    EXPECT_TRUE(parse({"--on"}).on);
    EXPECT_EQ(parse({}).count, 7u);
}

TEST(FlagTable, MissingValueIsFatal)
{
    EXPECT_EXIT(parse({"--on", "--name"}), ::testing::ExitedWithCode(1),
                "--name expects a value");
    EXPECT_EXIT(parse({"--count"}), ::testing::ExitedWithCode(1),
                "--count expects a value");
}

TEST(FlagTable, ValueOnAFlagWithoutOneIsUnknown)
{
    EXPECT_EXIT(parse({"--on=x"}), ::testing::ExitedWithCode(1),
                "unknown argument '--on=x' \\(try --help\\)");
    EXPECT_EXIT(parse({"--on="}), ::testing::ExitedWithCode(1),
                "unknown argument '--on='");
}

TEST(FlagTable, OptionalValueNeverTakesTheNextToken)
{
    const Recorded r = parse({"--opt", "next", "--opt=v", "--opt="},
                             /*with_operand=*/true);
    ASSERT_EQ(r.optionals.size(), 3u);
    EXPECT_EQ(r.optionals[0], std::nullopt);
    EXPECT_EQ(r.optionals[1], std::optional<std::string>("v"));
    EXPECT_EQ(r.optionals[2], std::optional<std::string>(""));
    EXPECT_EQ(r.operands, std::vector<std::string>{"next"});
    // Without an operand the next token is an unknown argument.
    EXPECT_EXIT(parse({"--opt", "next"}), ::testing::ExitedWithCode(1),
                "unknown argument 'next'");
}

TEST(FlagTable, TokenTakenAsAValueIsNeverReadAsAFlag)
{
    const Recorded r = parse({"--name", "--on", "--name", "--help"});
    EXPECT_EQ(r.values, (std::vector<std::string>{"--on", "--help"}));
    EXPECT_FALSE(r.on);
}

TEST(FlagTable, NumbersAreStrictAndNameTheFlag)
{
    EXPECT_EQ(parse({"--count", "3"}).count, 3u);
    EXPECT_EQ(parse({"--count=9"}).count, 9u);
    for (const char *bad : {"3x", "abc", "0", "10", "-1", "+2", ""}) {
        EXPECT_EXIT(parse({"--count", bad}), ::testing::ExitedWithCode(1),
                    "--count expects an integer in 1..9")
            << bad;
    }
}

TEST(FlagTable, UnknownArgumentsAreFatal)
{
    for (const char *bad : {"--bogus", "-x", "--", "-", "operand",
                            "--count-x=1", "--nam"}) {
        EXPECT_EXIT(parse({"--on", bad}), ::testing::ExitedWithCode(1),
                    std::string("unknown argument '") + bad + "'")
            << bad;
    }
    // With an operand declared, tokens without a leading '-' go to it
    // in argv order; dashed ones are still unknown.
    EXPECT_EQ(parse({"a", "--on", "b"}, true).operands,
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EXIT(parse({"--bogus"}, true), ::testing::ExitedWithCode(1),
                "unknown argument '--bogus'");
}

TEST(FlagTable, RegisteringAFlagTwiceIsFatal)
{
    EXPECT_DEATH(
        {
            Recorded r;
            FlagTable table = recordingTable(&r);
            table.flag("--name", "again", [] {});
        },
        "flag '--name' registered twice");
    EXPECT_DEATH(
        {
            FlagTable table;
            table.flag("--help", "reserved", [] {});
        },
        "registered twice");
    EXPECT_DEATH(
        {
            Recorded r;
            FlagTable table = recordingTable(&r, true);
            table.positional("MORE", "a second operand",
                             [](const std::string &) {});
        },
        "registered twice");
}

TEST(FlagTable, HelpIsGeneratedFromTheDeclarations)
{
    Recorded r;
    FlagTable table = recordingTable(&r, true);
    table.section("more");
    table.flag("--a-flag-with-a-rather-long-name",
               "help that is long enough to wrap onto a second line of "
               "the help column",
               [] {});
    EXPECT_EQ(table.usage("prog"),
              "usage: prog [options] ARG\n"
              "\n"
              "options:\n"
              "  --on                     a switch\n"
              "  --name V                 a value (repeatable)\n"
              "  --opt[=V]                an optional value\n"
              "  --count N                a number in 1..9\n"
              "  ARG                      the operand\n"
              "\n"
              "more:\n"
              "  --a-flag-with-a-rather-long-name\n"
              "                           help that is long enough to "
              "wrap onto a\n"
              "                           second line of the help "
              "column\n");
    std::istringstream lines(table.usage("prog"));
    for (std::string line; std::getline(lines, line);)
        EXPECT_LE(line.size(), 72u) << line;

    for (const char *help : {"--help", "-h"}) {
        EXPECT_EXIT(parse({"--on", help, "--bogus"}),
                    ::testing::ExitedWithCode(0), "")
            << help;
    }
}
