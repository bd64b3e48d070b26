#include "sweep/selection.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"
#include "uarch/params.hpp"

namespace reno::sweep
{

void
addSelectionFlags(FlagTable &table, SelectionArgs *args)
{
    table.section("workload/config selection");
    table.value("--suite", "NAME",
                "spec|media|synth|mem|branch|multi|all: the workloads "
                "to run (default all = the paper suites; the others "
                "are long generated programs)",
                &args->suite);
    table.value("--workload", "NAME", "one workload (repeatable)",
                [args](const std::string &v) {
                    args->workloadNames.push_back(v);
                });
    table.value("--workloads", "GLOB",
                "workloads matching a glob, from every suite (e.g. "
                "'mem.stream.*')",
                [args](const std::string &v) {
                    if (v.empty())
                        fatal("--workloads expects a glob pattern");
                    args->workloadsGlob = v;
                });
    table.value("--filter", "SUBSTR", "keep matching workload names",
                &args->filter);
    table.value("--config", "NAME",
                "preset (repeatable; default BASE, RENO) with optional "
                "variants (RENO/l3/pf-stride, RENO/tage, RENO/2c)",
                [args](const std::string &v) {
                    args->configNames.push_back(v);
                });
    addWidthFlag(table, &args->width);
    table.number("--cores", "N",
                 strprintf("run every config on an N-core MESI-coherent "
                           "System (same as a /Nc config suffix; 1..%u)",
                           SysParams::MaxCores),
                 &args->cores, 1, SysParams::MaxCores);
    table.value("--report", "table|json|csv", "reporter (default table)",
                [args](const std::string &v) {
                    const auto f = reportFormatFromName(v);
                    if (!f)
                        fatal("--report expects table, json or csv, "
                              "got '%s'",
                              v.c_str());
                    args->format = *f;
                });
    // The first --list flag's listing wins; resolveSelection() prints
    // it.
    const auto list = [args](std::string (*render)()) {
        return [args, render] {
            if (args->listing.empty())
                args->listing = render();
        };
    };
    table.flag("--list",
               "list every workload of every suite and the config "
               "presets, and exit",
               list([] {
                   return "workloads:\n" + renderWorkloadList() +
                          renderConfigList();
               }));
    table.flag("--list-configs", "list configuration presets and exit",
               list(renderConfigList));
    table.flag("--list-suites", "list workload suites and exit",
               list(renderSuiteList));
}

Selection
resolveSelection(const SelectionArgs &args)
{
    if (!args.listing.empty()) {
        std::fputs(args.listing.c_str(), stdout);
        std::exit(0);
    }

    Selection sel;
    sel.format = args.format;

    // Workload set.
    if (!args.workloadsGlob.empty()) {
        if (!args.workloadNames.empty())
            fatal("--workloads and --workload are exclusive");
        sel.workloads = workloadsMatching(args.workloadsGlob, args.suite);
    } else if (!args.workloadNames.empty()) {
        for (const std::string &name : args.workloadNames)
            sel.workloads.push_back(&workloadByName(name));
    } else if (args.suite == "all") {
        for (const Workload &w : allWorkloads())
            sel.workloads.push_back(&w);
    } else {
        sel.workloads = suiteWorkloads(args.suite);
    }
    if (!args.filter.empty()) {
        std::vector<const Workload *> kept;
        for (const Workload *w : sel.workloads) {
            if (w->name.find(args.filter) != std::string::npos)
                kept.push_back(w);
        }
        sel.workloads = kept;
    }
    if (sel.workloads.empty())
        fatal("no workloads selected");

    // Configuration set.
    const CoreParams base = *CoreParams::ofWidth(args.width);
    std::vector<std::string> config_names = args.configNames;
    if (config_names.empty())
        config_names = {"BASE", "RENO"};
    for (const std::string &name : config_names)
        sel.configs.push_back(configByNameOrDie(name, base));
    if (args.cores > 1) {
        // Equivalent to a /Nc suffix on every selected config; the
        // suffix keeps multi-core rows distinguishable in reports.
        for (NamedConfig &cfg : sel.configs) {
            if (cfg.params.sys.numCores > 1)
                fatal("--cores conflicts with config '%s' (already "
                      "runs %u cores)",
                      cfg.name.c_str(), cfg.params.sys.numCores);
            cfg.params.sys.numCores = args.cores;
            cfg.name += strprintf("/%uc", args.cores);
        }
    }
    return sel;
}

} // namespace reno::sweep
