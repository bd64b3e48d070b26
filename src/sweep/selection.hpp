/**
 * @file
 * The workload x configuration selection shared by the campaign
 * tools (reno-sweep, reno-sample). A tool parses it out of argv
 * with parseSelectionArgs() -- the parseCampaignArgs / parseObsArgs
 * idiom -- and skips its flags in its own strict loop with
 * isSelectionFlag():
 *
 *   --suite S            spec|media|synth|mem|branch|multi|all
 *   --workload NAME      one workload (repeatable)
 *   --workloads GLOB     glob over every suite (exclusive with
 *                        --workload)
 *   --filter SUBSTR      keep matching workload names
 *   --config NAME        preset with optional variants (repeatable;
 *                        default BASE, RENO)
 *   --width 4|6          machine width
 *   --cores N            N-core System for every config (a /Nc suffix)
 *   --report table|json|csv
 *   --list, --list-configs, --list-suites   print and exit 0
 *
 * Every flag takes both the `--flag value` and `--flag=value` forms.
 */
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "sweep/reporter.hpp"
#include "workloads/workloads.hpp"

namespace reno::sweep
{

/** What a tool runs and how it reports it. */
struct Selection {
    std::vector<const Workload *> workloads;
    std::vector<NamedConfig> configs;
    ReportFormat format = ReportFormat::Table;
};

/**
 * Parse and resolve the selection flags of argv; other arguments are
 * ignored. fatal() on a bad value, an unknown workload/config/suite,
 * an empty workload set, --workloads with --workload, or --cores on a
 * config that is already multi-core. The --list flags print to stdout
 * and exit(0).
 */
Selection parseSelectionArgs(int argc, char **argv);

/**
 * True if @p arg is a selection flag, so tools with strict argument
 * parsing can skip it. Sets @p *takes_value when the flag consumes the
 * following argv entry (detached form).
 */
bool isSelectionFlag(const std::string &arg, bool *takes_value);

/** The tools' --help block for the selection flags. */
std::string selectionUsage();

} // namespace reno::sweep
