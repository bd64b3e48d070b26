/**
 * @file
 * The workload x configuration selection shared by the campaign
 * tools (reno-sweep, reno-sample). A tool registers the selection
 * flags into its flag table with addSelectionFlags(), parses argv
 * once, and resolves what was read with resolveSelection().
 */
#pragma once

#include <string>
#include <vector>

#include "common/cli.hpp"
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

/** The selection flags as read, before resolution. */
struct SelectionArgs {
    std::string suite = "all";
    std::vector<std::string> workloadNames;  //!< --workload, in order
    std::string workloadsGlob;
    std::string filter;
    std::vector<std::string> configNames;   //!< --config, in order
    unsigned width = 4;
    unsigned cores = 1;
    ReportFormat format = ReportFormat::Table;
    std::string listing;  //!< the first --list* flag's output
};

/** Register the selection flags into @p table, filling @p *args. A
 *  bad --width, --cores or --report value, or an empty --workloads
 *  glob, is fatal() as it is read. */
void addSelectionFlags(FlagTable &table, SelectionArgs *args);

/**
 * Resolve parsed selection flags. After a --list flag, print its
 * listing to stdout and exit(0). fatal() on an unknown
 * workload/config/suite, an empty workload set, --workloads with
 * --workload, or --cores on a config that is already multi-core.
 */
Selection resolveSelection(const SelectionArgs &args);

} // namespace reno::sweep
