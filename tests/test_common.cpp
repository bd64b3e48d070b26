/**
 * @file
 * Tests for the common utilities: formatting, tables, RNG, bit
 * helpers, strict integer parsing, the strict line reader and checked
 * text-file writes.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <set>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/textfile.hpp"
#include "common/types.hpp"

using namespace reno;

TEST(StrPrintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("%d + %d = %d", 2, 3, 5), "2 + 3 = 5");
    EXPECT_EQ(strprintf("%s", "hello"), "hello");
    EXPECT_EQ(strprintf("%05x", 0xab), "000ab");
    EXPECT_EQ(strprintf(""), "");
}

TEST(SignExtend, Basics)
{
    EXPECT_EQ(signExtend(0x7fff, 16), 0x7fff);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0, 16), 0);
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0xffffffffULL, 32), -1);
}

TEST(FitsSigned, Boundaries)
{
    EXPECT_TRUE(fitsSigned(32767, 16));
    EXPECT_TRUE(fitsSigned(-32768, 16));
    EXPECT_FALSE(fitsSigned(32768, 16));
    EXPECT_FALSE(fitsSigned(-32769, 16));
    EXPECT_TRUE(fitsSigned(0, 16));
    EXPECT_TRUE(fitsSigned(127, 8));
    EXPECT_FALSE(fitsSigned(128, 8));
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0));
        EXPECT_TRUE(rng.chance(100));
    }
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("----"), std::string::npos);
    // Column alignment: "1" and "22" start at the same offset.
    const auto lines_at = [&](size_t n) {
        size_t pos = 0;
        for (size_t i = 0; i < n; ++i)
            pos = out.find('\n', pos) + 1;
        return out.substr(pos, out.find('\n', pos) - pos);
    };
    EXPECT_EQ(lines_at(2).find('1'), lines_at(3).find('2'));
}

TEST(TextTable, RaggedRowsTolerated)
{
    TextTable t;
    t.header({"a", "b", "c"});
    t.row({"only"});
    EXPECT_FALSE(t.render().empty());
}

TEST(Format, Percent)
{
    EXPECT_EQ(fmtPercent(0.123), "12.3");
    EXPECT_EQ(fmtPercent(1.0, 0), "100");
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
}

TEST(ParseUnsigned, AcceptsOnlyWholeDecimalsInRange)
{
    EXPECT_EQ(parseUnsigned("0"), 0u);
    EXPECT_EQ(parseUnsigned("42"), 42u);
    EXPECT_EQ(parseUnsigned("007"), 7u);
    EXPECT_EQ(parseUnsigned("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseUnsigned("8", 1, 8), 8u);
    for (const char *bad : {"", "2x", "x2", "-1", "+1", " 1", "1 ", "1.0",
                            "0x10", "18446744073709551616"})
        EXPECT_FALSE(parseUnsigned(bad).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(parseUnsigned("0", 1).has_value());
    EXPECT_FALSE(parseUnsigned("9", 1, 8).has_value());
}

TEST(ParseUnsigned, FlagValuesFailWithTheFlagAndTheRange)
{
    EXPECT_EQ(parseUnsignedFlag("--n", "12", 1), 12u);
    EXPECT_EXIT(parseUnsignedFlag("--n", "12x", 1),
                ::testing::ExitedWithCode(1),
                "--n expects an integer >= 1, got '12x'");
    EXPECT_EXIT(parseUnsignedFlag("--n", "-3"),
                ::testing::ExitedWithCode(1),
                "--n expects an integer >= 0, got '-3'");
    EXPECT_EXIT(parseUnsignedFlag("--n", "99999999999", 0, 99),
                ::testing::ExitedWithCode(1),
                "got '99999999999' \\(out of range\\)");
    EXPECT_EXIT(parseUnsignedFlag("--n", "9", 1, 8),
                ::testing::ExitedWithCode(1),
                "--n expects an integer in 1\\.\\.8, got '9'");
}

TEST(ParseSigned, AcceptsOnlyCanonicalDecimalsInRange)
{
    EXPECT_EQ(parseSigned("0"), 0);
    EXPECT_EQ(parseSigned("-42"), -42);
    EXPECT_EQ(parseSigned("9223372036854775807"),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(parseSigned("-9223372036854775808"),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(parseSigned("-128", -128, 127), -128);
    for (const char *bad : {"", "-", "-0", "+1", "1x", "-1x", " -1", "--1",
                            "9223372036854775808",
                            "-9223372036854775809"})
        EXPECT_FALSE(parseSigned(bad).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(parseSigned("-129", -128, 127).has_value());
    EXPECT_FALSE(parseSigned("128", -128, 127).has_value());
}

TEST(LineReader, ReadsExactKeysFieldsAndLists)
{
    LineReader in("tag v1\n"
                  "a 1 -2 1 name\n"
                  "regs 4 5 6\n"
                  "list 3 9 -1 7\n"
                  "empty \n"
                  "bare\n");
    std::uint32_t u = 0;
    int i = 0;
    bool b = false;
    std::string_view name;
    std::uint64_t regs[3] = {};
    std::uint64_t count = 0;
    std::vector<std::uint64_t> items;
    std::string_view hex = "x";
    EXPECT_TRUE(in.expectLine("tag v1"));
    EXPECT_TRUE(in.next("a", u, i, b, name));
    EXPECT_EQ(u, 1u);
    EXPECT_EQ(i, -2);
    EXPECT_TRUE(b);
    EXPECT_EQ(name, "name");
    EXPECT_TRUE(in.next("regs", std::span<std::uint64_t>(regs)));
    EXPECT_EQ(regs[2], 6u);
    EXPECT_TRUE(in.next("list", count, listOf<std::int64_t>(count, items)));
    EXPECT_EQ(items, (std::vector<std::uint64_t>{9, ~0ULL, 7}));
    EXPECT_TRUE(in.next("empty", hex));
    EXPECT_EQ(hex, "");
    EXPECT_TRUE(in.next("bare"));
    EXPECT_TRUE(in.finish());
    EXPECT_EQ(in.error(), "");
}

TEST(LineReader, RejectsEveryMalformedLine)
{
    const auto rejects = [](const char *text) {
        LineReader in(text);
        std::uint64_t n = 0;
        std::uint32_t small = 0;
        bool flag = false;
        std::vector<std::uint64_t> items;
        const bool ok = in.next("k", n, small, flag) &&
                        in.next("l", n, listOf(n, items)) && in.finish();
        EXPECT_FALSE(ok) << text;
        EXPECT_NE(in.error(), "") << text;
    };
    rejects("k 1 2 1\nl 1 5\nextra\n");      // trailing line
    rejects("k 1 2 1\nl 1 5");                 // unterminated line
    rejects("k 1 2 1 0\nl 1 5\n");            // extra token
    rejects("k 1 2\nl 1 5\n");                // missing token
    rejects("k 1 2 2\nl 1 5\n");              // bool out of range
    rejects("k -1 2 1\nl 1 5\n");             // negative unsigned
    rejects("k 1x 2 1\nl 1 5\n");             // trailing junk
    rejects("k  2 1\nl 1 5\n");               // empty token
    rejects("k 1 4294967296 1\nl 1 5\n");     // exceeds 32 bits
    rejects("kk 1 2 1\nl 1 5\n");             // wrong key
    rejects("k 1 2 1\nl 2 5\n");              // short list
    rejects("k 1 2 1\nl 1 5 6\n");            // long list
    rejects("k 1 2 1\nl 1000000000000000000 5\n");  // huge count

    LineReader in("a 1\nb 2\n");
    std::uint64_t v = 0;
    EXPECT_TRUE(in.next("a", v));
    EXPECT_FALSE(in.next("c", v));
    EXPECT_EQ(in.error(), "line 2: expected 'c'");
}

TEST(TextFile, WritesAreCheckedThroughClose)
{
    const std::string path = ::testing::TempDir() + "reno_textfile_test";
    EXPECT_TRUE(writeTextFile(path, "hello\n"));
    std::string back;
    EXPECT_TRUE(readTextFile(path, &back));
    EXPECT_EQ(back, "hello\n");
    std::filesystem::remove(path);
    EXPECT_FALSE(readTextFile(path, &back));

    // A small write to a full device is buffered and only fails at
    // fclose; a large one fails in fwrite.
    const LogLevel old = setLogThreshold(LogLevel::Silent);
    EXPECT_FALSE(writeTextFile("/dev/full", "x"));
    EXPECT_FALSE(writeTextFile("/dev/full", std::string(1 << 20, 'x')));
    EXPECT_FALSE(writeTextFile(path + "/no/such/dir", "x"));
    setLogThreshold(old);
}
