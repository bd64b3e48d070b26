/**
 * @file
 * Timing-core tests: IPC sanity on microbenchmarks, scheduling-loop
 * and fusion timing, misprediction and cache-miss effects,
 * architectural-state equivalence against the functional emulator for
 * every RENO configuration (parameterized), memory-order violation
 * replay, and resource-pressure behavior.
 */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "emu/emulator.hpp"
#include "run_kernel.hpp"
#include "sys/system.hpp"

using namespace reno;

namespace
{

std::string
independentAddsLoop(int unroll)
{
    std::string body;
    for (int i = 0; i < unroll; ++i)
        body += "  add t" + std::to_string(i % 8) + ", s0, s1\n";
    return
        "  li s0, 1\n  li s1, 2\n  li s2, 2000\n"
        "loop:\n" + body +
        "  subi s2, s2, 1\n"
        "  bne s2, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
}

const char *const dependentChain =
    "  li t0, 0\n  li s2, 2000\n"
    "loop:\n"
    "  addi t0, t0, 1\n"
    "  add  t0, t0, t0\n"
    "  sub  t0, t0, t0\n"
    "  add  t0, t0, s2\n"
    "  sub  t0, t0, s2\n"
    "  subi s2, s2, 1\n"
    "  bne s2, loop\n"
    "  li v0, 0\n  li a0, 0\n  syscall\n";

const char *const exitOnly = "  li v0, 0\n  li a0, 0\n  syscall\n";

} // namespace

TEST(Core, IndependentOpsReachIssueWidth)
{
    CoreParams p;  // 3 int issue slots
    const RunOutput r = runKernel(independentAddsLoop(8), p);
    EXPECT_GT(r.sim.ipc(), 2.3) << "independent adds should flow at "
                                   "nearly the integer issue width";
}

TEST(Core, DependentChainSerializes)
{
    // Five serial single-cycle ops plus loop control per iteration:
    // the dependence chain, not the 3-wide integer issue, sets IPC
    // (7 instructions over ~5 chain cycles).
    CoreParams p;
    const RunOutput r = runKernel(dependentChain, p);
    EXPECT_LT(r.sim.ipc(), 1.5);
    EXPECT_GT(r.sim.ipc(), 0.8);
}

TEST(Core, TwoCycleSchedulerSlowsDependentChains)
{
    CoreParams fast, slow;
    slow.schedLoop = 2;
    const RunOutput f = runKernel(dependentChain, fast);
    const RunOutput s = runKernel(dependentChain, slow);
    EXPECT_GT(s.sim.cycles, f.sim.cycles * 3 / 2)
        << "back-to-back dependent ops take 2 cycles each";
    // Independent work is much less affected.
    const RunOutput fi = runKernel(independentAddsLoop(8), fast);
    const RunOutput si = runKernel(independentAddsLoop(8), slow);
    EXPECT_LT(si.sim.cycles, fi.sim.cycles * 5 / 4);
}

TEST(Core, SixWideBeatsfourWideOnParallelCode)
{
    const RunOutput w4 = runKernel(independentAddsLoop(12),
                                   CoreParams::fourWide());
    const RunOutput w6 = runKernel(independentAddsLoop(12),
                                   CoreParams::sixWide());
    EXPECT_LT(w6.sim.cycles, w4.sim.cycles);
}

TEST(Core, MispredictionsCostCycles)
{
    // A data-dependent unpredictable branch vs a fixed one.
    const char *unpredictable =
        "  li s2, 3000\n"
        "loop:\n"
        "  li v0, 5\n  syscall\n"
        "  andi t0, v0, 1\n"
        "  beq t0, skip\n"
        "  nop\n"
        "skip:\n"
        "  subi s2, s2, 1\n"
        "  bne s2, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    const char *predictable =
        "  li s2, 3000\n"
        "loop:\n"
        "  li v0, 5\n  syscall\n"
        "  andi t0, v0, 1\n"
        "  beq zero, skip\n"
        "  nop\n"
        "skip:\n"
        "  subi s2, s2, 1\n"
        "  bne s2, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    const RunOutput u = runKernel(unpredictable, p);
    const RunOutput d = runKernel(predictable, p);
    EXPECT_GT(u.sim.bpMispredicts, d.sim.bpMispredicts + 1000);
    EXPECT_GT(u.sim.cycles, d.sim.cycles + 4000)
        << "~1400 mispredicts at >= ~8 cycles each";
}

TEST(Core, CacheMissesCostCycles)
{
    // Walk 256KB (fits in L2, misses 32KB D$) vs walk 4KB.
    const char *big =
        ".data\nbuf: .space 262144\n.text\n"
        "  la s0, buf\n  li s1, 8192\n"
        "loop:\n"
        "  ldq t0, 0(s0)\n"
        "  addi s0, s0, 32\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    const char *small =
        ".data\nbuf: .space 4096\n.text\n"
        "  la s0, buf\n  li s1, 8192\n  li s2, 0\n"
        "loop:\n"
        "  andi s2, s1, 127\n"
        "  slli s2, s2, 5\n"
        "  la s0, buf\n"
        "  add s0, s0, s2\n"
        "  ldq t0, 0(s0)\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    const RunOutput b = runKernel(big, p);
    const RunOutput s = runKernel(small, p);
    EXPECT_GT(b.sim.dcacheMisses, 7000u);
    EXPECT_LT(s.sim.dcacheMisses, 300u);
}

// ---- equivalence across configurations (parameterized) -----------------

struct ConfigCase {
    const char *name;
    RenoConfig config;
};

class CoreEquivalence : public ::testing::TestWithParam<ConfigCase>
{
};

INSTANTIATE_TEST_SUITE_P(
    Core, CoreEquivalence,
    ::testing::Values(
        ConfigCase{"base", RenoConfig::baseline()},
        ConfigCase{"me", RenoConfig::meOnly()},
        ConfigCase{"mecf", RenoConfig::meCf()},
        ConfigCase{"reno", RenoConfig::full()},
        ConfigCase{"fullit", RenoConfig::fullIt()},
        ConfigCase{"integ", RenoConfig::integrationOnly()},
        ConfigCase{"loadsinteg", RenoConfig::loadsIntegrationOnly()}),
    [](const ::testing::TestParamInfo<ConfigCase> &info) {
        return info.param.name;
    });

TEST_P(CoreEquivalence, MatchesEmulatorState)
{
    // A program exercising calls, stack traffic, redundant loads,
    // moves, folded additions and stores.
    const char *src = R"(
        .data
arr:    .space 1024
        .text
helper:
        subi sp, sp, 16
        stq  ra, 0(sp)
        stq  s0, 8(sp)
        mov  s0, a0
        slli t0, s0, 3
        andi t0, t0, 1016
        la   t1, arr
        add  t1, t1, t0
        ldq  t2, 0(t1)
        add  t2, t2, s0
        stq  t2, 0(t1)
        ldq  t3, 0(t1)
        mov  v0, t3
        ldq  ra, 0(sp)
        ldq  s0, 8(sp)
        addi sp, sp, 16
        ret
_start:
        li   s1, 300
        li   s2, 0
loop:
        mov  a0, s1
        subi sp, sp, 8
        stq  ra, 0(sp)
        call helper
        ldq  ra, 0(sp)
        addi sp, sp, 8
        add  s2, s2, v0
        subi s1, s1, 1
        bne  s1, loop
        mov  a0, s2
        li   v0, 1
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";
    const Program prog = assemble(src);
    Emulator ref(prog);
    ref.run();

    CoreParams params;
    params.reno = GetParam().config;
    const RunOutput run = runKernel(src, params);

    EXPECT_EQ(run.output, ref.output());
    EXPECT_EQ(run.memDigest, ref.memory().digest());
    EXPECT_EQ(run.sim.retired, ref.instCount());
}

TEST_P(CoreEquivalence, SmallRegisterFileStillCorrect)
{
    CoreParams params;
    params.reno = GetParam().config;
    params.numPregs = 40;  // extreme pressure
    const char *src =
        "  li s1, 200\n  li s2, 0\n"
        "loop:\n"
        "  mov t0, s1\n"
        "  addi t1, t0, 3\n"
        "  addi t2, t1, 4\n"
        "  add  s2, s2, t2\n"
        "  mul  t3, t2, t1\n"
        "  xor  s2, s2, t3\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  mov a0, s2\n  li v0, 1\n  syscall\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    const Program prog = assemble(src);
    Emulator ref(prog);
    ref.run();
    const RunOutput run = runKernel(src, params);
    EXPECT_EQ(run.output, ref.output());
}

// ---- RENO-specific timing behaviors -------------------------------------

TEST(CoreReno, EliminationImprovesRenoFriendlyLoop)
{
    const char *src =
        "  li s1, 3000\n  li s2, 0\n"
        "loop:\n"
        "  mov t0, s2\n"
        "  addi t1, t0, 1\n"
        "  addi t2, t1, 1\n"
        "  addi t3, t2, 1\n"
        "  add  s2, s2, t3\n"
        "  andi s2, s2, 4095\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams base;
    CoreParams reno;
    reno.reno = RenoConfig::full();
    const RunOutput b = runKernel(src, base);
    const RunOutput r = runKernel(src, reno);
    EXPECT_LT(r.sim.cycles, b.sim.cycles);
    EXPECT_GT(r.sim.elimFraction(), 0.3);
}

TEST(CoreReno, EliminatedInstructionsStillRetire)
{
    CoreParams reno;
    reno.reno = RenoConfig::full();
    const RunOutput r = runKernel(
        "  mov t0, s0\n  mov t1, t0\n" + std::string(exitOnly), reno);
    EXPECT_EQ(r.sim.retired, 5u);
}

TEST(CoreReno, FusionPenaltyAblationCostsCycles)
{
    // Folded addi feeding a dependent add chain: free with 3-input
    // adders, one cycle per op without.
    const char *src =
        "  li s1, 3000\n  li t0, 0\n"
        "loop:\n"
        "  addi t1, t0, 8\n"
        "  add  t0, t1, s1\n"
        "  sub  t0, t0, s1\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams free_fusion;
    free_fusion.reno = RenoConfig::meCf();
    CoreParams slow_fusion = free_fusion;
    slow_fusion.freeAddAddFusion = false;
    const RunOutput f = runKernel(src, free_fusion);
    const RunOutput s = runKernel(src, slow_fusion);
    EXPECT_GT(s.sim.cycles, f.sim.cycles);
}

TEST(CoreReno, ShiftFusionAlwaysPaysACycle)
{
    // Folded addi feeding a shift: the shifter has only a 2-input
    // adder prepended, costing one cycle (paper section 3.3).
    const char *src =
        "  li s1, 3000\n  li t0, 0\n"
        "loop:\n"
        "  addi t1, t0, 3\n"
        "  sll  t0, t1, s1\n"
        "  srl  t0, t0, s1\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams mecf;
    mecf.reno = RenoConfig::meCf();
    CoreParams base;
    const RunOutput r = runKernel(src, mecf);
    const RunOutput b = runKernel(src, base);
    // Still correct and still profitable or neutral overall.
    EXPECT_GT(r.sim.elimFraction(), 0.1);
    (void)b;
}

TEST(CoreReno, ViolationReplayStaysCorrect)
{
    // A store whose address is computed late, followed immediately by
    // a load of the same address: aggressive scheduling issues the
    // load first, the store's execution flushes it, and store sets
    // learn to serialize.
    const char *src = R"(
        .data
buf:    .space 256
        .text
_start:
        la   s0, buf
        li   s1, 2000
        li   s3, 0
loop:
        mul  t0, s1, s1       # slow address computation
        andi t0, t0, 24
        add  t1, s0, t0
        stq  s1, 0(t1)        # store to computed address
        andi t2, s1, 24
        add  t3, s0, t2
        ldq  t4, 0(t3)        # frequently overlaps the store
        add  s3, s3, t4
        subi s1, s1, 1
        bne  s1, loop
        mov  a0, s3
        li   v0, 1
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";
    const Program prog = assemble(src);
    Emulator ref(prog);
    ref.run();
    CoreParams p;
    p.reno = RenoConfig::full();
    const RunOutput r = runKernel(src, p);
    EXPECT_EQ(r.output, ref.output());
    EXPECT_GT(r.sim.violationSquashes, 0u);
}

TEST(CoreReno, MisintegrationFlushStaysCorrect)
{
    // Store X to a slot, reload (integrates), store Y to the same
    // slot from a different pc, reload again: the second reload can
    // match the stale tuple and must be flushed and re-executed.
    const char *src = R"(
        .data
slot:   .space 64
        .text
_start:
        la   s0, slot
        li   s1, 500
        li   s3, 0
loop:
        stq  s1, 8(s0)
        ldq  t0, 8(s0)
        add  s3, s3, t0
        addi t1, s1, 7
        stq  t1, 8(s0)
        ldq  t2, 8(s0)
        add  s3, s3, t2
        subi s1, s1, 1
        bne  s1, loop
        mov  a0, s3
        li   v0, 1
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";
    const Program prog = assemble(src);
    Emulator ref(prog);
    ref.run();
    CoreParams p;
    p.reno = RenoConfig::full();
    const RunOutput r = runKernel(src, p);
    EXPECT_EQ(r.output, ref.output());
}

TEST(Core, SyscallsSerializeButStayCorrect)
{
    const char *src =
        "  li s1, 50\n"
        "loop:\n"
        "  li v0, 1\n  mov a0, s1\n  syscall\n"
        "  li v0, 3\n  li a0, 32\n  syscall\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    const Program prog = assemble(src);
    Emulator ref(prog);
    ref.run();
    const RunOutput r = runKernel(src, CoreParams{});
    EXPECT_EQ(r.output, ref.output());
}

TEST(Core, TrivialProgramFinishes)
{
    const RunOutput r = runKernel(exitOnly, CoreParams{});
    EXPECT_EQ(r.sim.retired, 3u);
    EXPECT_GT(r.sim.cycles, 0u);
    EXPECT_LT(r.sim.cycles, 400u);
}

TEST(Core, ResultSnapshotConsistent)
{
    const Program prog = assemble(exitOnly);
    Emulator emu(prog);
    System sys(CoreParams{}, {&emu});
    const SimResult r = sys.run();
    EXPECT_EQ(r.retired, sys.core(0).result().retired);
    EXPECT_TRUE(sys.core(0).finished());
}

TEST(CoreDeath, TooFewPregsRejected)
{
    const Program prog = assemble("nop\n");
    Emulator emu(prog);
    CoreParams p;
    p.numPregs = 16;
    EXPECT_EXIT((System{p, {&emu}}), ::testing::ExitedWithCode(1),
                "numPregs");
}
