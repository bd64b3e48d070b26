/**
 * @file
 * Pipeline viewer: run a workload (or a built-in demo snippet) on the
 * timing core and print a cycle-by-cycle pipeline diagram of a window
 * of retired instructions, annotated with RENO's rename decisions.
 *
 * This makes the paper's core mechanism directly visible: collapsed
 * instructions fetch and rename but never issue; their consumers are
 * short-circuited to the shared physical register, so dependent work
 * issues earlier than on the baseline.
 *
 * Usage:
 *   pipeline_viewer                        # demo snippet, full RENO
 *   pipeline_viewer --config BASE          # demo without RENO
 *   pipeline_viewer --workload gzip        # window of a real workload
 *   pipeline_viewer --skip 2000 --n 48     # choose the window
 */
#include <cstdio>
#include <string>

#include "asm/assembler.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "sys/system.hpp"
#include "trace/pipetrace.hpp"

using namespace reno;

namespace
{

/**
 * Demo: a pointer-bump loop the paper's introduction motivates.
 * Each iteration advances a pointer with a register-immediate
 * addition (folded by RENO_CF), loads through it, accumulates, and
 * saves/restores a value through the stack (bypassed by RENO_RA).
 */
const char *const demo_source = R"(
        .data
buf:    .space 512
        .text
_start:
        la   s0, buf
        li   s1, 32           # elements
        li   t0, 0
fill:
        slli t1, t0, 3
        add  t2, s0, t1
        stq  t0, 0(t2)
        addi t0, t0, 1
        slt  t3, t0, s1
        bne  t3, fill

        mov  t0, s0           # p = buf
        li   s2, 0            # sum
        li   t4, 0            # i
loop:
        ldq  t1, 0(t0)        # *p
        addi t0, t0, 8        # p++   (RENO_CF folds this)
        mov  t2, t1           #        (RENO_ME collapses this)
        subi sp, sp, 8        #        (RENO_CF folds this)
        stq  s2, 0(sp)        # spill
        add  t6, t1, t2
        mul  t7, t6, t2
        add  t6, t6, t7
        ldq  t3, 0(sp)        # reload (RENO_RA bypasses this)
        addi sp, sp, 8        #        (RENO_CF folds this)
        add  s2, t3, t6
        addi t4, t4, 1        #        (RENO_CF folds this)
        slt  t5, t4, s1
        bne  t5, loop

        li   v0, 1
        mov  a0, s2
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

} // namespace

int
main(int argc, char **argv)
{
    std::string config = "RENO";
    std::string workload_name;
    std::uint64_t skip = 0;
    std::uint64_t count = 40;
    unsigned width = 72;

    FlagTable table;
    table.value("--config", "NAME",
                "preset with optional /variants, e.g. BASE, ME+CF, "
                "RENO/l3 (default RENO)",
                &config);
    table.value("--workload", "NAME",
                "window of a real workload (default: the demo snippet)",
                &workload_name);
    table.number("--skip", "N", "retired instructions before the window",
                 &skip);
    table.number("--n", "N", "instructions in the window (default 40)",
                 &count);
    table.number("--width", "N", "diagram width in cycles (default 72)",
                 &width);
    table.parse(argc, argv);

    Workload demo{"demo", "example", demo_source};
    const Workload &w = workload_name.empty()
        ? demo : workloadByName(workload_name);

    const CoreParams params =
        configByNameOrDie(config, CoreParams::fourWide()).params;
    if (params.sys.numCores > 1)
        fatal("--config %s runs %u cores; pipeline_viewer traces one "
              "core", config.c_str(), params.sys.numCores);
    if (workload_name.empty() && skip == 0)
        skip = 220;  // land the demo window inside the main loop

    PipeTracer::Options topts;
    topts.skipFirst = skip;
    topts.maxRecords = count;
    PipeTracer tracer(topts);

    const Program prog = assemble(w.source);
    Emulator::Options eopts;
    eopts.randSeed = w.seed;
    Emulator emu(prog, eopts);
    System sys(params, {&emu});
    sys.core(0).setRetireListener(&tracer);
    const SimResult r = sys.run();

    std::printf("%s on '%s' (config %s): %llu insts, %llu cycles, "
                "IPC %.3f, %.1f%% collapsed\n\n",
                w.name.c_str(), w.suite.c_str(), config.c_str(),
                static_cast<unsigned long long>(r.retired),
                static_cast<unsigned long long>(r.cycles), r.ipc(),
                r.elimFraction() * 100.0);
    std::fputs(renderPipeTrace(tracer.records(), width).c_str(),
               stdout);
    return 0;
}
