/**
 * @file
 * Assembly runner: assemble a .s file from disk, execute it on the
 * functional emulator, and (optionally) simulate it on the timing
 * core (a 1-core System) with a chosen RENO configuration.
 *
 * Usage:
 *   run_asm program.s                 # functional run only
 *   run_asm --sim program.s           # + timing simulation (full RENO)
 *   run_asm --sim --config BASE x.s   # + chosen configuration
 */
#include <cstdio>
#include <string>

#include "asm/assembler.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/textfile.hpp"
#include "emu/emulator.hpp"
#include "harness/experiment.hpp"
#include "sys/system.hpp"

using namespace reno;

int
main(int argc, char **argv)
{
    std::string path;
    std::string config = "RENO";
    bool sim = false;
    FlagTable table;
    table.positional("FILE", "the assembly program",
                     [&path](const std::string &v) { path = v; });
    table.flag("--sim", "also simulate it on the timing core", &sim);
    table.value("--config", "NAME",
                "configuration for --sim, e.g. BASE, ME+CF, RENO/l3 "
                "(default RENO)",
                &config);
    table.parse(argc, argv);
    if (path.empty())
        fatal("usage: run_asm [--sim] [--config <name>] program.s");
    CoreParams params;
    if (sim) {
        params = configByNameOrDie(config, CoreParams::fourWide()).params;
        if (params.sys.numCores > 1)
            fatal("--config %s runs %u cores; run_asm --sim simulates "
                  "one core", config.c_str(), params.sys.numCores);
    }

    std::string source;
    if (!readTextFile(path, &source))
        fatal("cannot open %s", path.c_str());

    Program prog;
    try {
        prog = assemble(source);
    } catch (const AsmError &e) {
        fatal("%s: %s", path.c_str(), e.what());
    }
    std::printf("assembled %zu instructions, %zu data bytes\n",
                prog.text.size(), prog.data.size());

    Emulator emu(prog);
    if (!sim) {
        emu.run();
        std::printf("output: %s\n", emu.output().c_str());
        std::printf("retired %llu instructions, exit code %llu\n",
                    static_cast<unsigned long long>(emu.instCount()),
                    static_cast<unsigned long long>(emu.exitCode()));
        return static_cast<int>(emu.exitCode());
    }

    System sys(params, {&emu});
    const SimResult r = sys.run();
    std::printf("output: %s\n", emu.output().c_str());
    std::printf("cycles=%llu IPC=%.3f eliminated=%.1f%% "
                "(ME %.1f%% CF %.1f%% CSE+RA %.1f%%)\n",
                static_cast<unsigned long long>(r.cycles), r.ipc(),
                r.elimFraction() * 100,
                r.elimFraction(ElimKind::Move) * 100,
                r.elimFraction(ElimKind::Fold) * 100,
                (r.elimFraction(ElimKind::Cse) +
                 r.elimFraction(ElimKind::Ra)) * 100);
    return static_cast<int>(emu.exitCode());
}
