/**
 * @file
 * Test helper: run a FlagTable over a command line given as its
 * arguments, the program name supplied.
 */
#pragma once

#include <vector>

#include "common/cli.hpp"

namespace reno
{

/** FlagTable::parse() over {"prog", args...}. */
inline void
parseArgs(FlagTable &table, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    table.parse(int(args.size()), args.data());
}

} // namespace reno
