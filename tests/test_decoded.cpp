/**
 * @file
 * Pre-decoded superblock execution tests: the decoded engine is a
 * pure accelerator, so every observable -- architectural state,
 * ExecRecord streams, program output, memory digests, instruction
 * counts, registry-wide SimResult fields, checkpoint round-trips --
 * must be bit-exact with the per-step interpreter, across every
 * generated suite, with chopped/resumed runs, under self-modifying
 * code, and through the detailed core's oracle.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "emu/decoded.hpp"
#include "emu/emulator.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "smc_program.hpp"
#include "sample/interval.hpp"
#include "uarch/params.hpp"
#include "uarch/sim_result.hpp"
#include "workloads/workloads.hpp"

using namespace reno;

namespace
{

/** Scoped override of the process-wide emulator-mode default. */
struct EmuModeGuard {
    bool saved;
    explicit EmuModeGuard(bool decoded) : saved(defaultDecodedExec())
    {
        setDefaultDecodedExec(decoded);
    }
    ~EmuModeGuard() { setDefaultDecodedExec(saved); }
};

Emulator::Options
optsFor(const Workload &w, bool decoded)
{
    Emulator::Options opts;
    opts.randSeed = w.seed;
    opts.decodedExec = decoded;
    return opts;
}

/** Everything observable about a (possibly partial) functional run. */
struct FuncSnapshot {
    ArchState state;
    std::uint64_t insts = 0;
    std::uint64_t exitCode = 0;
    bool done = false;
    std::string output;
    std::uint64_t memDigest = 0;
};

FuncSnapshot
snapshotOf(const Emulator &emu)
{
    FuncSnapshot s;
    s.state = emu.state();
    s.insts = emu.instCount();
    s.exitCode = emu.exitCode();
    s.done = emu.done();
    s.output = emu.output();
    s.memDigest = emu.memory().digest();
    return s;
}

FuncSnapshot
runCapped(const Workload &w, bool decoded, std::uint64_t cap)
{
    Emulator emu(assembleWorkload(w), optsFor(w, decoded));
    emu.runUntil(cap);
    return snapshotOf(emu);
}

void
expectSameSnapshot(const FuncSnapshot &interp, const FuncSnapshot &dec,
                   const std::string &label)
{
    EXPECT_EQ(interp.insts, dec.insts) << label;
    EXPECT_EQ(interp.state.pc, dec.state.pc) << label;
    for (unsigned r = 0; r < NumLogRegs; ++r)
        EXPECT_EQ(interp.state.regs[r], dec.state.regs[r])
            << label << " r" << r;
    EXPECT_EQ(interp.exitCode, dec.exitCode) << label;
    EXPECT_EQ(interp.done, dec.done) << label;
    EXPECT_EQ(interp.output, dec.output) << label;
    EXPECT_EQ(interp.memDigest, dec.memDigest) << label;
}

void
expectSameSim(const SimResult &a, const SimResult &b,
              const std::string &label)
{
    for (const SimStatField &f : simResultFields())
        EXPECT_EQ(statValue(a, f), statValue(b, f))
            << label << " field " << f.name;
}

CoreParams
renoParams()
{
    CoreParams p = CoreParams::fourWide();
    return p;
}

} // namespace

// ---- functional equivalence, every generated suite ------------------

TEST(DecodedEquivalence, AllGeneratedSuitesBitExactUnderCap)
{
    constexpr std::uint64_t kCap = 1'500'000;
    for (const char *suite : {"synth", "mem", "branch", "multi"}) {
        for (const Workload *w : suiteWorkloads(suite)) {
            const FuncSnapshot interp = runCapped(*w, false, kCap);
            const FuncSnapshot dec = runCapped(*w, true, kCap);
            expectSameSnapshot(interp, dec, w->name);
        }
    }
}

TEST(DecodedEquivalence, FullRunBitExactWithSuperblocksEngaged)
{
    const Workload &w = workloadByName("synth.plain");
    const Program &prog = assembleWorkload(w);

    Emulator interp(prog, optsFor(w, false));
    interp.run();
    Emulator dec(prog, optsFor(w, true));
    dec.run();

    expectSameSnapshot(snapshotOf(interp), snapshotOf(dec), w.name);
    // The fast path actually ran: blocks were decoded, hot blocks were
    // chained into superblocks, and nearly every lookup hit.
    const BlockCacheStats &s = dec.blockStats();
    EXPECT_GT(s.blocksDecoded, 0u);
    EXPECT_GT(s.superblocksChained, 0u);
    EXPECT_GT(s.hitRate(), 0.9);
    EXPECT_EQ(dec.decodedInsts(), dec.instCount());
    EXPECT_EQ(interp.interpInsts(), interp.instCount());
}

// ---- ExecRecord stream through the step() oracle --------------------

TEST(DecodedEquivalence, ExecRecordStreamIdentical)
{
    const Workload &w = workloadByName("synth.mix");
    const Program &prog = assembleWorkload(w);
    Emulator interp(prog, optsFor(w, false));
    Emulator dec(prog, optsFor(w, true));

    for (std::uint64_t i = 0; i < 200'000 && !interp.done(); ++i) {
        const ExecRecord a = interp.step();
        const ExecRecord b = dec.step();
        ASSERT_EQ(a.pc, b.pc) << "step " << i;
        ASSERT_EQ(a.npc, b.npc) << "step " << i;
        ASSERT_TRUE(a.inst == b.inst) << "step " << i;
        ASSERT_EQ(a.srcVal[0], b.srcVal[0]) << "step " << i;
        ASSERT_EQ(a.srcVal[1], b.srcVal[1]) << "step " << i;
        ASSERT_EQ(a.result, b.result) << "step " << i;
        ASSERT_EQ(a.effAddr, b.effAddr) << "step " << i;
        ASSERT_EQ(a.storeData, b.storeData) << "step " << i;
        ASSERT_EQ(a.taken, b.taken) << "step " << i;
        ASSERT_EQ(a.exited, b.exited) << "step " << i;
    }
    EXPECT_EQ(interp.instCount(), dec.instCount());
}

TEST(DecodedEquivalence, InterleavedStepAndRunUntilMatchesInterpreter)
{
    const Workload &w = workloadByName("synth.phase");
    const Program &prog = assembleWorkload(w);

    Emulator interp(prog, optsFor(w, false));
    interp.runUntil(500'000);

    // Alternate bulk runs with single steps so the engine repeatedly
    // pauses mid-block and resumes through the cursor.
    Emulator dec(prog, optsFor(w, true));
    while (!dec.done() && dec.instCount() < 500'000) {
        dec.runUntil(std::min<std::uint64_t>(dec.instCount() + 997,
                                             500'000));
        for (int i = 0; i < 3 && !dec.done() &&
                        dec.instCount() < 500'000; ++i)
            dec.step();
    }
    dec.runUntil(500'000);
    expectSameSnapshot(snapshotOf(interp), snapshotOf(dec), w.name);
}

// ---- checkpoint chop/resume mid-superblock --------------------------

TEST(DecodedEquivalence, CheckpointChopResumeMidSuperblock)
{
    const Workload &w = workloadByName("synth.plain");
    const Program &prog = assembleWorkload(w);

    Emulator straight(prog, optsFor(w, true));
    straight.run();
    ASSERT_GT(straight.blockStats().superblocksChained, 0u);

    // Chop the run at a prime stride (so chops land mid-superblock),
    // round-tripping the full functional state through a checkpoint
    // into a fresh emulator at every chop.
    constexpr std::uint64_t kStride = 49'999;
    auto emu = std::make_unique<Emulator>(prog, optsFor(w, true));
    std::uint64_t bound = kStride;
    while (!emu->done()) {
        emu->runUntil(bound);
        bound += kStride;
        const EmuCheckpoint ckpt = emu->checkpoint();
        emu = std::make_unique<Emulator>(prog, optsFor(w, true));
        emu->restore(ckpt);
    }
    expectSameSnapshot(snapshotOf(straight), snapshotOf(*emu), w.name);

    // And the same chopped sequence under the interpreter agrees.
    const FuncSnapshot interp =
        runCapped(w, false, std::numeric_limits<std::uint64_t>::max());
    expectSameSnapshot(interp, snapshotOf(*emu), w.name + "/interp");
}

// ---- self-modifying code invalidates decoded blocks -----------------

TEST(SelfModifyingCode, StoreToCodePageInvalidatesAndReexecutes)
{
    const Program prog = assemble(smcSource());

    Emulator::Options interpOpts;
    interpOpts.decodedExec = false;
    Emulator interp(prog, interpOpts);
    interp.run();
    EXPECT_EQ(interp.output(), "150");

    Emulator::Options decOpts;
    decOpts.decodedExec = true;
    decOpts.hotThreshold = 4;  // promote the loop early
    Emulator dec(prog, decOpts);
    dec.run();
    EXPECT_EQ(dec.output(), "150");
    expectSameSnapshot(snapshotOf(interp), snapshotOf(dec), "smc");

    const BlockCacheStats &s = dec.blockStats();
    EXPECT_GT(s.invalidationEvents, 0u);
    EXPECT_GT(s.invalidatedBlocks, 0u);
    EXPECT_GT(s.blocksDecoded, 1u);  // re-decoded after the patch
}

TEST(SelfModifyingCode, CheckpointCarriesPatchedText)
{
    const Program prog = assemble(smcSource());
    Emulator::Options opts;
    opts.decodedExec = true;

    // Chop shortly after the patching store (iteration 50 of 100 ends
    // well before instruction 400 of the ~620-instruction run) and
    // resume into a fresh emulator: the patched text must travel with
    // the checkpoint.
    Emulator first(prog, opts);
    first.runUntil(400);
    ASSERT_FALSE(first.done());
    const EmuCheckpoint ckpt = first.checkpoint();

    Emulator resumed(prog, opts);
    resumed.restore(ckpt);
    resumed.run();
    EXPECT_EQ(resumed.output(), "150");
}

// ---- registry-wide SimResult comparison through the harness ---------

TEST(DecodedSimResults, DetailedRunIdenticalBothModes)
{
    // One paper workload through the full detailed core: the oracle
    // consumes step() ExecRecords, so any decoded-mode deviation
    // shows up in the cycle-level stats.
    const Workload &w = workloadByName("jpeg.enc");
    const CoreParams params = renoParams();

    RunOutput interp, dec;
    {
        EmuModeGuard guard(false);
        interp = runWorkload(w, params);
    }
    {
        EmuModeGuard guard(true);
        dec = runWorkload(w, params);
    }
    expectSameSim(interp.sim, dec.sim, w.name);
    EXPECT_EQ(interp.output, dec.output);
    EXPECT_EQ(interp.memDigest, dec.memDigest);
    EXPECT_EQ(interp.emuInsts, dec.emuInsts);
}

TEST(DecodedSimResults, MultiCoreRunIdenticalBothModes)
{
    const Workload &w = *suiteWorkloads("multi").front();
    NamedConfig cfg;
    ASSERT_TRUE(configByName("RENO/2c", renoParams(), &cfg));

    RunOutput interp, dec;
    {
        EmuModeGuard guard(false);
        interp = runWorkload(w, cfg.params);
    }
    {
        EmuModeGuard guard(true);
        dec = runWorkload(w, cfg.params);
    }
    expectSameSim(interp.sim, dec.sim, w.name + "/2c");
    EXPECT_EQ(interp.output, dec.output);
    EXPECT_EQ(interp.memDigest, dec.memDigest);
    EXPECT_EQ(interp.emuInsts, dec.emuInsts);
}

TEST(DecodedSimResults, SampledIntervalIdenticalBothModes)
{
    // The sampled path leans hardest on the engine: bulk fast-forward
    // to the window, then functional warming through an access sink.
    // One window per generated suite.
    const CoreParams params = renoParams();
    for (const char *name : {"synth.plain", "mem.stream.32k",
                             "branch.loop"}) {
        const Workload &w = workloadByName(name);
        sample::IntervalWindow window;
        window.startInst = 200'000;
        window.warmupInsts = 2'000;
        window.measureInsts = 5'000;

        SimResult interp, dec;
        {
            EmuModeGuard guard(false);
            interp = sample::runIntervalDetailed(w, params, window);
        }
        {
            EmuModeGuard guard(true);
            dec = sample::runIntervalDetailed(w, params, window);
        }
        expectSameSim(interp, dec, name);
    }
}

// ---- block-cache stats and metrics ----------------------------------

TEST(BlockCacheStatsTest, FlushedToMetricsRegistryOnDestruction)
{
    auto &reg = obs::MetricsRegistry::instance();
    reg.reset();

    const Workload &w = workloadByName("synth.plain");
    {
        Emulator emu(assembleWorkload(w), optsFor(w, true));
        emu.runUntil(200'000);
    }
    EXPECT_GT(reg.counter("emu.insts.decoded").value(), 0u);
    EXPECT_GT(reg.counter("emu.block_cache.blocks_decoded").value(), 0u);
    EXPECT_GT(reg.counter("emu.block_cache.lookups").value(), 0u);
    reg.reset();
}

TEST(BlockCacheStatsTest, DecodeLimitsBoundBlockAndSuperblockSize)
{
    const Workload &w = workloadByName("synth.plain");
    Emulator emu(assembleWorkload(w), optsFor(w, true));
    emu.run();
    const DecodeLimits limits;
    // No decoded unit may exceed the superblock cap; plain blocks obey
    // the block cap. Covered indirectly via ops/blocks accounting.
    const BlockCacheStats &s = emu.blockStats();
    ASSERT_GT(s.blocksDecoded + s.superblocksChained, 0u);
    EXPECT_LE(s.opsDecoded,
              (s.blocksDecoded + s.superblocksChained) *
                  limits.maxSuperblockOps);
}

// ---- error reporting ------------------------------------------------

TEST(DecodedErrors, StepAfterExitPanicReportsContext)
{
    const Program prog = assemble("_start:\n  li v0, 0\n  syscall\n");
    Emulator emu(prog);
    emu.run();
    EXPECT_DEATH(emu.step(),
                 "Emulator::step after exit \\(pc 0x.*instructions "
                 "retired\\)");
}

TEST(DecodedErrors, RunUntilBelowRetiredCountIsFatal)
{
    const Workload &w = workloadByName("synth.plain");
    Emulator emu(assembleWorkload(w), optsFor(w, true));
    emu.runUntil(10'000);
    ASSERT_GE(emu.instCount(), 10'000u);
    EXPECT_DEATH(emu.runUntil(100),
                 "runUntil: bound 100 is below the");
}

TEST(DecodedErrors, InterpreterModeAgreesOnRunUntilFatal)
{
    const Workload &w = workloadByName("synth.plain");
    Emulator emu(assembleWorkload(w), optsFor(w, false));
    emu.runUntil(10'000);
    EXPECT_DEATH(emu.runUntil(100),
                 "runUntil: bound 100 is below the");
}
