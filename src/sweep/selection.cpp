#include "sweep/selection.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "uarch/params.hpp"

namespace reno::sweep
{

namespace
{

/** Flags that take a value, detached or after '='. */
constexpr const char *ValueFlags[] = {
    "--suite", "--workload", "--workloads", "--filter", "--config",
    "--width", "--cores",    "--report",
};

/** Flags that print a registry and exit. */
constexpr const char *ListFlags[] = {"--list", "--list-configs",
                                     "--list-suites"};

bool
isListFlag(const std::string &arg)
{
    for (const char *flag : ListFlags) {
        if (arg == flag)
            return true;
    }
    return false;
}

[[noreturn]] void
printListAndExit(const std::string &flag)
{
    if (flag == "--list-suites") {
        std::fputs(renderSuiteList().c_str(), stdout);
    } else {
        if (flag == "--list")
            std::printf("workloads:\n%s", renderWorkloadList().c_str());
        std::fputs(renderConfigList().c_str(), stdout);
    }
    std::exit(0);
}

} // namespace

Selection
parseSelectionArgs(int argc, char **argv)
{
    std::string suite = "all";
    std::string filter;
    std::string workloads_glob;
    std::vector<std::string> workload_names;
    std::vector<std::string> config_names;
    unsigned width = 4;
    unsigned cores = 1;
    Selection sel;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(prefix.size());
            if (i + 1 >= argc)
                fatal("%s expects a value", flag);
            return argv[++i];
        };
        auto matches = [&](const char *flag) {
            return arg == flag ||
                   arg.rfind(std::string(flag) + "=", 0) == 0;
        };
        if (isListFlag(arg)) {
            printListAndExit(arg);
        } else if (matches("--suite")) {
            suite = value("--suite");
        } else if (matches("--workload")) {
            workload_names.push_back(value("--workload"));
        } else if (matches("--workloads")) {
            workloads_glob = value("--workloads");
            if (workloads_glob.empty())
                fatal("--workloads expects a glob pattern");
        } else if (matches("--filter")) {
            filter = value("--filter");
        } else if (matches("--config")) {
            config_names.push_back(value("--config"));
        } else if (matches("--width")) {
            const std::string v = value("--width");
            if (v != "4" && v != "6")
                fatal("--width expects 4 or 6, got '%s'", v.c_str());
            width = v == "6" ? 6 : 4;
        } else if (matches("--cores")) {
            cores = unsigned(parseUnsignedFlag(
                "--cores", value("--cores"), 1, SysParams::MaxCores));
        } else if (matches("--report")) {
            const std::string v = value("--report");
            const auto f = reportFormatFromName(v);
            if (!f)
                fatal("--report expects table, json or csv, got '%s'",
                      v.c_str());
            sel.format = *f;
        }
    }

    // Workload set.
    if (!workloads_glob.empty()) {
        if (!workload_names.empty())
            fatal("--workloads and --workload are exclusive");
        sel.workloads = workloadsMatching(workloads_glob, suite);
    } else if (!workload_names.empty()) {
        for (const std::string &name : workload_names)
            sel.workloads.push_back(&workloadByName(name));
    } else if (suite == "all") {
        for (const Workload &w : allWorkloads())
            sel.workloads.push_back(&w);
    } else {
        sel.workloads = suiteWorkloads(suite);
    }
    if (!filter.empty()) {
        std::vector<const Workload *> kept;
        for (const Workload *w : sel.workloads) {
            if (w->name.find(filter) != std::string::npos)
                kept.push_back(w);
        }
        sel.workloads = kept;
    }
    if (sel.workloads.empty())
        fatal("no workloads selected");

    // Configuration set.
    const CoreParams base =
        width == 6 ? CoreParams::sixWide() : CoreParams::fourWide();
    if (config_names.empty())
        config_names = {"BASE", "RENO"};
    for (const std::string &name : config_names) {
        NamedConfig cfg;
        if (!configByName(name, base, &cfg)) {
            std::string known;
            for (const std::string &k : knownConfigNames())
                known += " " + k;
            fatal("unknown config '%s' (known:%s)", name.c_str(),
                  known.c_str());
        }
        sel.configs.push_back(cfg);
    }
    if (cores > 1) {
        // Equivalent to a /Nc suffix on every selected config; the
        // suffix keeps multi-core rows distinguishable in reports.
        for (NamedConfig &cfg : sel.configs) {
            if (cfg.params.sys.numCores > 1)
                fatal("--cores conflicts with config '%s' (already "
                      "runs %u cores)",
                      cfg.name.c_str(), cfg.params.sys.numCores);
            cfg.params.sys.numCores = cores;
            cfg.name += strprintf("/%uc", cores);
        }
    }
    return sel;
}

bool
isSelectionFlag(const std::string &arg, bool *takes_value)
{
    *takes_value = false;
    for (const char *flag : ValueFlags) {
        if (arg == flag) {
            *takes_value = true;
            return true;
        }
        if (arg.rfind(std::string(flag) + "=", 0) == 0)
            return true;
    }
    return isListFlag(arg);
}

std::string
selectionUsage()
{
    return strprintf(
           "workload/config selection:\n"
           "  --suite spec|media|synth|mem|branch|multi|all\n"
           "                           workloads to run (default all =\n"
           "                           the paper suites; the others are\n"
           "                           long generated programs)\n"
           "  --workload NAME          one workload (repeatable)\n"
           "  --workloads GLOB         workloads matching a glob, from\n"
           "                           every suite (e.g. 'mem.stream.*')\n"
           "  --filter SUBSTR          keep matching workload names\n"
           "  --config NAME            preset (repeatable; default BASE,\n"
           "                           RENO) with optional variants\n"
           "                           (RENO/l3/pf-stride, RENO/tage,\n"
           "                           RENO/2c)\n"
           "  --width 4|6              machine width (default 4)\n"
           "  --cores N                run every config on an N-core\n"
           "                           MESI-coherent System (same as a\n"
           "                           /Nc config suffix; 1..%u)\n"
           "  --report table|json|csv  reporter (default table)\n"
           "  --list                   list every workload of every suite\n"
           "                           and the config presets, and exit\n"
           "  --list-configs           list configuration presets and"
           " exit\n"
           "  --list-suites            list workload suites and exit\n",
           SysParams::MaxCores);
}

} // namespace reno::sweep
