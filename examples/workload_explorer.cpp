/**
 * @file
 * Workload explorer: run any registered workload (or a whole suite)
 * on a chosen machine configuration and print detailed statistics,
 * including functional-vs-timing state cross-checks and an optional
 * critical-path breakdown.
 *
 * Usage: workload_explorer [options] <workload|spec|media|all>
 * (`workload_explorer --help` lists the options).
 */
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "harness/experiment.hpp"

using namespace reno;

namespace
{

void
runOne(const Workload &w, const CoreParams &params, bool critpath)
{
    // Functional reference.
    const RunOutput ref = runFunctional(w);

    CriticalPathAnalyzer cpa;
    const RunOutput out =
        runWorkload(w, params, critpath ? &cpa : nullptr);
    const SimResult &r = out.sim;

    const bool state_ok =
        out.output == ref.output && out.memDigest == ref.memDigest;

    std::printf("%-10s %-6s insts=%-8llu cycles=%-9llu IPC=%5.3f "
                "elim=%5.1f%% (ME %4.1f%% CF %4.1f%% CSE+RA %4.1f%%) "
                "bpmr=%4.1f%% dc-miss=%llu viol=%llu misint=%llu %s\n",
                w.name.c_str(), w.suite.c_str(),
                static_cast<unsigned long long>(r.retired),
                static_cast<unsigned long long>(r.cycles), r.ipc(),
                r.elimFraction() * 100.0,
                r.elimFraction(ElimKind::Move) * 100.0,
                r.elimFraction(ElimKind::Fold) * 100.0,
                (r.elimFraction(ElimKind::Cse) +
                 r.elimFraction(ElimKind::Ra)) * 100.0,
                r.bpLookups
                    ? 100.0 * double(r.bpMispredicts) / double(r.bpLookups)
                    : 0.0,
                static_cast<unsigned long long>(r.dcacheMisses),
                static_cast<unsigned long long>(r.violationSquashes),
                static_cast<unsigned long long>(r.misintegrationFlushes),
                state_ok ? "state-ok" : "STATE-MISMATCH");

    if (critpath) {
        const auto b = cpa.breakdown();
        std::printf("           critpath: fetch %.1f%% alu %.1f%% "
                    "load %.1f%% mem %.1f%% commit %.1f%%\n",
                    b[0] * 100, b[1] * 100, b[2] * 100, b[3] * 100,
                    b[4] * 100);
    }
    if (!state_ok)
        std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string target = "all";
    std::string config = "RENO";
    unsigned width = 4;
    unsigned pregs = 160;
    unsigned schedloop = 1;
    bool critpath = false;

    FlagTable table;
    table.positional("TARGET",
                     "a workload name, or spec, media or all (default)",
                     [&target](const std::string &v) { target = v; });
    table.value("--config", "NAME",
                "preset with optional /variants, e.g. BASE, ME+CF, "
                "LoadsInteg, RENO/l3 (default RENO)",
                &config);
    addWidthFlag(table, &width);
    table.number("--pregs", "N", "physical registers (default 160)",
                 &pregs);
    table.number("--schedloop", "N", "wakeup/select cycles (default 1)",
                 &schedloop);
    table.flag("--critpath", "print the critical-path breakdown",
               &critpath);
    table.parse(argc, argv);

    CoreParams params =
        configByNameOrDie(config, *CoreParams::ofWidth(width)).params;
    params.numPregs = pregs;
    params.schedLoop = schedloop;

    if (target == "all" || target == "spec" || target == "media") {
        for (const Workload &w : allWorkloads()) {
            if (target == "all" || w.suite == target)
                runOne(w, params, critpath);
        }
    } else {
        runOne(workloadByName(target), params, critpath);
    }
    return 0;
}
