/**
 * @file
 * Multi-core coherence tests: the MESI state lattice on the snooping
 * bus (every legal transition plus the invalidation/intervention/
 * upgrade counters), false-sharing ping-pong detection on the "multi"
 * suite, config variant parsing (/2c, /4c), and checkpoint
 * round-trips across core counts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <vector>

#include "coherence/mesi.hpp"
#include "harness/experiment.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
#include "sample/checkpoint.hpp"
#include "sample/sampler.hpp"
#include "sample/warmup.hpp"
#include "sys/system.hpp"
#include "uarch/params.hpp"
#include "workloads/workload_sources.hpp"
#include "workloads/workloads.hpp"

using namespace reno;
using namespace reno::workloads;

namespace
{

/** A two-core bus over real L1 D$ models, as the System wires it. */
struct BusRig {
    SysParams sys;
    MainMemory mem;
    Cache d0, d1;
    CoherenceBus bus;

    static CacheParams
    l1Params()
    {
        CacheParams p;
        p.name = "d$";
        p.sizeBytes = 1024;
        p.assoc = 2;
        p.blockBytes = 32;
        return p;
    }

    BusRig()
        : mem(MemoryParams{}, 32), d0(l1Params(), &mem),
          d1(l1Params(), &mem), bus(sys, 32, 2)
    {
        bus.attachCore(0, &d0);
        bus.attachCore(1, &d1);
    }

    /** One demand access as MemHierarchy issues it: snoop, then D$. */
    Cycle
    access(unsigned core, Addr addr, bool write)
    {
        const Cycle penalty =
            bus.beforeDataAccess(core, addr, write, 0);
        (core == 0 ? d0 : d1)
            .access(addr, 0,
                    write ? MemAccessKind::Write : MemAccessKind::Read);
        return penalty;
    }
};

/** Small private kernels so the detailed runs stay fast. */
Workload
testWorkload(const char *name, const char *source)
{
    return Workload{name, "test", source, 1};
}

} // namespace

TEST(Mesi, ReadMissTakesExclusive)
{
    BusRig rig;
    EXPECT_EQ(rig.access(0, 0x1000, false), 0u)
        << "sole-copy fill pays no bus penalty";
    EXPECT_EQ(rig.bus.state(0, 0x1000), MesiState::Exclusive);
    EXPECT_EQ(rig.bus.state(1, 0x1000), MesiState::Invalid);
}

TEST(Mesi, SecondReaderSharesCleanLine)
{
    BusRig rig;
    rig.access(0, 0x1000, false);
    EXPECT_EQ(rig.access(1, 0x1000, false),
              Cycle{rig.sys.snoopLatency})
        << "E -> S downgrade is a snoop, not an intervention";
    EXPECT_EQ(rig.bus.state(0, 0x1000), MesiState::Shared);
    EXPECT_EQ(rig.bus.state(1, 0x1000), MesiState::Shared);
    EXPECT_EQ(rig.bus.interventions(), 0u);
    EXPECT_EQ(rig.bus.invalidations(), 0u);
}

TEST(Mesi, WriteUpgradesExclusiveSilently)
{
    BusRig rig;
    rig.access(0, 0x2000, false);
    EXPECT_EQ(rig.access(0, 0x2000, true), 0u)
        << "E -> M never touches the bus";
    EXPECT_EQ(rig.bus.state(0, 0x2000), MesiState::Modified);
    EXPECT_EQ(rig.bus.upgradeMisses(), 0u);
}

TEST(Mesi, WriteMissOverSharersIsUpgradeMiss)
{
    BusRig rig;
    rig.access(0, 0x3000, false);
    rig.access(1, 0x3000, false);  // both Shared
    EXPECT_EQ(rig.access(0, 0x3000, true),
              Cycle{rig.sys.upgradeLatency});
    EXPECT_EQ(rig.bus.upgradeMisses(), 1u);
    EXPECT_EQ(rig.bus.invalidations(), 1u);
    EXPECT_EQ(rig.bus.state(0, 0x3000), MesiState::Modified);
    EXPECT_EQ(rig.bus.state(1, 0x3000), MesiState::Invalid);
    EXPECT_FALSE(rig.d1.probe(0x3000))
        << "the remote L1's tag array must agree with the directory";
}

TEST(Mesi, RemoteReadOfModifiedIntervenes)
{
    BusRig rig;
    rig.access(0, 0x4000, true);  // Modified in core 0
    EXPECT_EQ(rig.access(1, 0x4000, false),
              Cycle{rig.sys.interventionLatency});
    EXPECT_EQ(rig.bus.interventions(), 1u);
    EXPECT_EQ(rig.bus.writebacks(), 1u)
        << "the dirty line flushes to the shared level";
    EXPECT_EQ(rig.bus.state(0, 0x4000), MesiState::Shared);
    EXPECT_EQ(rig.bus.state(1, 0x4000), MesiState::Shared);
    EXPECT_TRUE(rig.d0.probe(0x4000))
        << "an intervention downgrades; the copy stays resident";
}

TEST(Mesi, RemoteWriteInvalidatesModifiedOwner)
{
    BusRig rig;
    rig.access(0, 0x5000, true);  // Modified in core 0
    EXPECT_EQ(rig.access(1, 0x5000, true),
              Cycle{rig.sys.interventionLatency});
    EXPECT_EQ(rig.bus.interventions(), 1u);
    EXPECT_EQ(rig.bus.invalidations(), 1u);
    EXPECT_EQ(rig.bus.writebacks(), 1u);
    EXPECT_EQ(rig.bus.state(0, 0x5000), MesiState::Invalid);
    EXPECT_EQ(rig.bus.state(1, 0x5000), MesiState::Modified);
    EXPECT_FALSE(rig.d0.probe(0x5000));
}

TEST(Mesi, EvictionRetiresDirectoryEntry)
{
    BusRig rig;
    rig.access(0, 0x6000, false);
    rig.bus.onEviction(0, 0x6000, false);
    EXPECT_EQ(rig.bus.state(0, 0x6000), MesiState::Invalid);
    // The next reader is the sole copy again: Exclusive, no snoop.
    EXPECT_EQ(rig.access(1, 0x6000, false), 0u);
    EXPECT_EQ(rig.bus.state(1, 0x6000), MesiState::Exclusive);
}

TEST(Mesi, DistinctBlocksNeverInteract)
{
    BusRig rig;
    rig.access(0, 0x7000, true);
    rig.access(1, 0x7020, true);  // next 32 B block
    EXPECT_EQ(rig.bus.invalidations(), 0u);
    EXPECT_EQ(rig.bus.interventions(), 0u);
    EXPECT_EQ(rig.bus.state(0, 0x7000), MesiState::Modified);
    EXPECT_EQ(rig.bus.state(1, 0x7020), MesiState::Modified);
}

TEST(Mesi, SameBlockOffsetsShareOneLine)
{
    BusRig rig;
    rig.access(0, 0x8000, true);
    // A different byte of the same 32 B block ping-pongs ownership.
    rig.access(1, 0x8008, true);
    EXPECT_EQ(rig.bus.invalidations(), 1u);
    EXPECT_EQ(rig.bus.state(0, 0x8000), MesiState::Invalid);
}

TEST(Mesi, ConstructionValidatesGeometry)
{
    SysParams sys;
    EXPECT_DEATH(CoherenceBus(sys, 48, 2), "power of two");
    EXPECT_DEATH(CoherenceBus(sys, 32, 0), "positive");
    EXPECT_DEATH(CoherenceBus(sys, 32, 33), "at most 32");
}

TEST(SysVariant, ParsesCoreCountSuffixes)
{
    CoreParams params = CoreParams::fourWide();
    EXPECT_TRUE(applyVariant("2c", &params));
    EXPECT_EQ(params.sys.numCores, 2u);
    EXPECT_TRUE(applyVariant("4c", &params));
    EXPECT_EQ(params.sys.numCores, 4u);
    EXPECT_TRUE(applyVariant("8c", &params));
    EXPECT_EQ(params.sys.numCores, 8u);
}

TEST(SysVariant, RejectsCountsTheSystemWouldFatalOn)
{
    CoreParams params = CoreParams::fourWide();
    EXPECT_FALSE(applyVariant("0c", &params));
    EXPECT_FALSE(applyVariant("9c", &params));
    EXPECT_FALSE(applyVariant("c", &params));
    EXPECT_FALSE(applyVariant("xc", &params));
    EXPECT_FALSE(applyVariant("2", &params));
    EXPECT_EQ(params.sys.numCores, 1u) << "rejects leave params alone";
}

TEST(SysVariant, ConfigByNameComposesWithOtherVariants)
{
    const CoreParams base = CoreParams::fourWide();
    NamedConfig cfg;
    ASSERT_TRUE(configByName("RENO/2c", base, &cfg));
    EXPECT_EQ(cfg.params.sys.numCores, 2u);
    ASSERT_TRUE(configByName("RENO/4c/l3", base, &cfg));
    EXPECT_EQ(cfg.params.sys.numCores, 4u);
    EXPECT_FALSE(cfg.params.mem.extraLevels.empty());
    EXPECT_FALSE(configByName("RENO/0c", base, &cfg));
    EXPECT_FALSE(configByName("RENO/9c", base, &cfg));
}

TEST(SuiteErrors, UnknownSuiteListsKnownSuites)
{
    EXPECT_DEATH(suiteWorkloads("nope"), "known suites");
    EXPECT_DEATH(workloadsMatching("multi.*", "nope"), "known suites");
}

TEST(MultiSuite, RegisteredAndListed)
{
    const std::vector<const Workload *> multi = suiteWorkloads("multi");
    ASSERT_FALSE(multi.empty());
    for (const Workload *w : multi)
        EXPECT_EQ(w->suite, "multi");
    EXPECT_FALSE(workloadsMatching("multi.false*", "all").empty());
}

TEST(System, MultiCoreRunIsDeterministic)
{
    const Workload w =
        testWorkload("t.prodcons", multiProdconsSource(16, 2000));
    NamedConfig cfg;
    ASSERT_TRUE(
        configByName("RENO/2c", CoreParams::fourWide(), &cfg));
    const RunOutput a = runWorkload(w, cfg.params);
    const RunOutput b = runWorkload(w, cfg.params);
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.memDigest, b.memDigest);
    for (const SimStatField &field : simResultFields())
        EXPECT_EQ(statValue(a.sim, field), statValue(b.sim, field))
            << field.name;
}

TEST(System, FalseSharingPingPongsAndPaddingCuresIt)
{
    // Two cores read-modify-write counters 8 bytes apart (one 32 B
    // block): ownership ping-pongs, so invalidations scale with the
    // iteration count. The same kernel with 256 B padding puts each
    // counter in its own block: coherence traffic vanishes and the
    // computed checksums do not change.
    const unsigned iters = 3000;
    const Workload shared_w =
        testWorkload("t.false", multiFalseSource(iters, 8));
    const Workload padded_w =
        testWorkload("t.false.pad", multiFalseSource(iters, 256));
    NamedConfig cfg;
    ASSERT_TRUE(
        configByName("RENO/2c", CoreParams::fourWide(), &cfg));

    const RunOutput shared = runWorkload(shared_w, cfg.params);
    const RunOutput padded = runWorkload(padded_w, cfg.params);
    EXPECT_GT(shared.sim.cohInvalidations, iters / 2)
        << "false sharing must show up as invalidation traffic";
    EXPECT_LT(padded.sim.cohInvalidations,
              shared.sim.cohInvalidations / 20)
        << "padding to a block apart must kill the ping-pong";
    EXPECT_EQ(shared.output, padded.output)
        << "padding moves the counters, not the arithmetic";
    EXPECT_GT(shared.sim.dcacheMisses, padded.sim.dcacheMisses + iters)
        << "every ping-pong invalidation forces a D$ refill";
}

TEST(System, PerCoreSlotsAndSharedStackInResult)
{
    const Workload w =
        testWorkload("t.stream", multiStreamSource(2, 2));
    NamedConfig cfg;
    ASSERT_TRUE(
        configByName("RENO/2c", CoreParams::fourWide(), &cfg));
    const RunOutput out = runWorkload(w, cfg.params);
    EXPECT_GT(out.sim.coreCycles[0], 0u);
    EXPECT_GT(out.sim.coreCycles[1], 0u);
    EXPECT_GT(out.sim.coreRetired[0], 0u);
    EXPECT_GT(out.sim.coreRetired[1], 0u);
    EXPECT_EQ(out.sim.coreCycles[2], 0u) << "only 2 cores ran";
    EXPECT_EQ(out.sim.retired,
              out.sim.coreRetired[0] + out.sim.coreRetired[1]);
    EXPECT_GE(out.sim.cycles, std::max(out.sim.coreCycles[0],
                                       out.sim.coreCycles[1]))
        << "system cycles bound every core's completion time";
}

TEST(System, ConstructorValidatesEmulatorCount)
{
    const Workload w =
        testWorkload("t.lock2", multiLockSource(10));
    const Program &prog = assembleWorkload(w);
    Emulator::Options opts;
    Emulator emu(prog, opts);
    CoreParams params = CoreParams::fourWide();
    params.sys.numCores = 2;
    std::vector<Emulator *> one = {&emu};
    EXPECT_DEATH(System(params, one), "emulator");
    params.sys.numCores = 0;
    EXPECT_DEATH(System(params, one), "core count");
}

TEST(Checkpoint, RoundTripsAcrossCoreCounts)
{
    const Workload w =
        testWorkload("t.ckpt", multiLockSource(4000));
    const CoreParams params = CoreParams::fourWide();

    for (const unsigned cores : {1u, 2u, 4u}) {
        // Warm through the real interleaved engine so the encoded
        // state (L1s, shared stack, MESI directory) is non-trivial.
        const SpmdEmulators emus(w, cores);
        const std::vector<Emulator *> &emu_ptrs = emus.cores();

        sample::SampleCheckpoint ckpt;
        if (cores == 1) {
            sample::WarmState warm(params.mem, params.bpred);
            warmStep(*emu_ptrs[0], warm, 500);
            ckpt.emu = std::make_shared<const EmuCheckpoint>(
                emu_ptrs[0]->checkpoint());
            ckpt.warm =
                std::make_shared<const sample::WarmState>(warm);
        } else {
            sample::SysWarmState warm(params.mem, params.bpred,
                                      cores);
            warmStepMulti(emu_ptrs, warm, 500 * cores);
            ckpt.emu = std::make_shared<const EmuCheckpoint>(
                emu_ptrs[0]->checkpoint());
            for (unsigned i = 1; i < cores; ++i)
                ckpt.extraEmus.push_back(
                    std::make_shared<const EmuCheckpoint>(
                        emu_ptrs[i]->checkpoint()));
            ckpt.sysWarm =
                std::make_shared<const sample::SysWarmState>(warm);
        }
        ASSERT_TRUE(ckpt.usable());
        ASSERT_EQ(ckpt.numCores(), cores);

        const std::string text =
            sample::CheckpointStore::encode(ckpt);
        sample::SampleCheckpoint back;
        ASSERT_TRUE(sample::CheckpointStore::decode(
            text, params.mem, params.bpred, &back, cores))
            << cores << " cores";
        ASSERT_TRUE(back.usable());
        EXPECT_EQ(back.numCores(), cores);
        EXPECT_EQ(back.emu->instCount, ckpt.emu->instCount);
        for (unsigned i = 1; i < cores; ++i)
            EXPECT_EQ(back.extraEmus[i - 1]->instCount,
                      ckpt.extraEmus[i - 1]->instCount);

        // Bit-exact round trip: re-encoding the decoded state (MESI
        // directory, cache tags, predictors and all) reproduces the
        // file byte for byte.
        EXPECT_EQ(sample::CheckpointStore::encode(back), text)
            << cores << " cores";

        // A file snapshotting N cores never restores as N' cores,
        // and the rejection names both counts.
        sample::SampleCheckpoint wrong;
        std::string why;
        EXPECT_FALSE(sample::CheckpointStore::decode(
            text, params.mem, params.bpred, &wrong, cores + 1,
            &why));
        EXPECT_NE(why.find("cores"), std::string::npos) << why;
    }
}

TEST(Checkpoint, StoreKeysSeparateCoreCounts)
{
    const Workload w =
        testWorkload("t.ckpt2", multiLockSource(4000));
    const Program &prog = assembleWorkload(w);
    const CoreParams params = CoreParams::fourWide();
    // The store keeps checkpoints on disk only.
    const std::string dir =
        ::testing::TempDir() + "reno_ckpt_core_keys_test";
    std::filesystem::remove_all(dir);
    const sample::CheckpointStore store(dir);

    Emulator::Options opts;
    opts.randSeed = w.seed;
    // 150 instructions per core: aggregate position 300, as a disk
    // lookup at 300 requires.
    Emulator emu0(prog, opts);
    emu0.runUntil(150);
    opts.randSeed = w.seed + 1;
    opts.coreId = 1;
    Emulator emu1(prog, opts);
    emu1.runUntil(150);

    sample::SysWarmState warm(params.mem, params.bpred, 2);
    std::vector<EmuCheckpoint> snaps;
    snaps.push_back(emu0.checkpoint());
    snaps.push_back(emu1.checkpoint());
    store.storeMulti(w, 300, std::move(snaps), warm);

    EXPECT_TRUE(store
                    .lookup(w, 300, params.mem, params.bpred,
                            /*num_cores=*/2)
                    .usable());
    EXPECT_FALSE(store
                     .lookup(w, 300, params.mem, params.bpred,
                             /*num_cores=*/1)
                     .usable())
        << "a 2-core checkpoint must never satisfy a 1-core lookup";
    std::filesystem::remove_all(dir);
}

TEST(Sampling, TooManyCoresRejectedByName)
{
    // Multi-core sampling is real now; what remains rejected is a
    // core count past the bus's compile-time limit, and the error
    // must name the offending configuration.
    const Workload w =
        testWorkload("t.sample", multiLockSource(4000));
    NamedConfig cfg;
    cfg.name = "BASE/overwide";
    cfg.params = CoreParams::fourWide();
    cfg.params.sys.numCores = SysParams::MaxCores + 1;
    sample::SampleOptions options;
    EXPECT_DEATH(
        sample::runSampledCampaign({&w}, {cfg}, options),
        "supports 1\\.\\.8 cores \\(config 'BASE/overwide' runs 9\\)");
}

TEST(Emulator, CoreIdSyscallReturnsConfiguredId)
{
    // li v0, 6; syscall -> v0 = core id (0 outside a System).
    const Workload w =
        testWorkload("t.coreid", multiFalseSource(1, 8));
    const Program &prog = assembleWorkload(w);
    Emulator::Options opts;
    opts.coreId = 3;
    Emulator a(prog, opts);
    opts.coreId = 0;
    Emulator b(prog, opts);
    while (!a.done())
        a.runUntil(a.instCount() + 10000);
    while (!b.done())
        b.runUntil(b.instCount() + 10000);
    EXPECT_NE(a.memory().digest(), b.memory().digest())
        << "the kernel's counter address depends on the core id";
}
