/**
 * @file
 * Pipeline-subsystem tests: golden byte-identity of full SimResult
 * vectors against the pre-refactor monolithic core (squash/replay
 * included) on the harness's 1-core System, stall-counter
 * attribution per back-pressured resource, the SimResult window
 * delta/accumulate algebra the sampling windows use,
 * instruction-arena recycling, and a frozen schedule digest: every
 * retired instruction's rename/issue/complete/retire cycles and
 * critical-path attribution over every suite, plus every counter and
 * CPI stack of the multi suite on four cores.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.hpp"
#include "common/digest.hpp"
#include "common/log.hpp"
#include "sample/interval.hpp"
#include "emu/emulator.hpp"
#include "harness/experiment.hpp"
#include "run_kernel.hpp"
#include "sweep/thread_pool.hpp"
#include "sys/system.hpp"
#include "uarch/dyninst.hpp"
#include "uarch/retire_listener.hpp"
#include "workloads/workloads.hpp"

using namespace reno;

namespace
{

const char *const exitOnly = "  li v0, 0\n  li a0, 0\n  syscall\n";

// Program with frequent memory-order violations (slow store address,
// overlapping load right behind it): exercises squash/replay.
const char *const violationSrc = R"(
        .data
buf:    .space 256
        .text
_start:
        la   s0, buf
        li   s1, 2000
        li   s3, 0
loop:
        mul  t0, s1, s1
        andi t0, t0, 24
        add  t1, s0, t0
        stq  s1, 0(t1)
        andi t2, s1, 24
        add  t3, s0, t2
        ldq  t4, 0(t3)
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

// Store/reload pairs from alternating pcs: integrated loads whose
// tuples go stale, plus retirement-port (LSQ drain) pressure.
const char *const misintegSrc = R"(
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

// Call-heavy kernel with stack traffic, redundant loads, moves and
// folded additions (the CoreEquivalence program from test_core).
const char *const mixedSrc = R"(
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

} // namespace

// ---- golden byte-identity vs. the pre-refactor core --------------------
//
// The expected vectors below were produced by the monolithic
// src/uarch/core.{hpp,cpp} (commit dbd4032, before the src/pipeline/
// decomposition) on default CoreParams. Every counter of SimResult
// must match exactly: the stage decomposition, the issue-candidate
// list, the robStores/robLoads scan views and the instruction arena
// are required to be behavior-preserving, not just statistically
// close.

namespace
{

struct GoldenCase {
    const char *name;
    SimResult expect;
};

const GoldenCase ViolationGolden[] = {
    {"violation-base",
     {5913u, 20010u,
      {20010u, 0u, 0u, 0u, 0u},
      2000u, 2000u, 2000u,
      0u, 0u, 0u, 0u,
      1u, 0u,
      2000u, 3u,
      3u, 1u, 3u,
      71u, 1957u, 0u, 0u}},
    {"violation-reno",
     {5416u, 20010u,
      {18004u, 4u, 2002u, 0u, 0u},
      2000u, 2000u, 2000u,
      6009u, 0u, 0u, 0u,
      1u, 0u,
      2000u, 3u,
      3u, 1u, 3u,
      74u, 0u, 0u, 0u}},
};

const GoldenCase MisintegGolden = {
    "misinteg-reno",
    {2258u, 4510u,
     {2504u, 4u, 1002u, 0u, 1000u},
     1000u, 1000u, 500u,
     2000u, 1000u, 0u, 0u,
     0u, 0u,
     500u, 3u,
     3u, 1u, 3u,
     0u, 0u, 0u, 919u}};

const GoldenCase MixedGolden[] = {
    {"mixed-base",
     {4485u, 8108u,
      {8108u, 0u, 0u, 0u, 0u},
      1500u, 1200u, 900u,
      0u, 0u, 0u, 0u,
      4u, 0u,
      900u, 3u,
      5u, 33u, 20u,
      1925u, 0u, 0u, 0u}},
    {"mixed-reno",
     {4430u, 8108u,
      {5585u, 429u, 1152u, 0u, 942u},
      1500u, 1200u, 900u,
      3041u, 942u, 0u, 825u,
      0u, 0u,
      900u, 3u,
      5u, 33u, 20u,
      2048u, 0u, 0u, 0u}},
    {"mixed-fullit",
     {4430u, 8108u,
      {5246u, 429u, 1152u, 340u, 941u},
      1500u, 1200u, 900u,
      7525u, 1281u, 0u, 825u,
      0u, 0u,
      900u, 3u,
      5u, 33u, 20u,
      2048u, 0u, 0u, 0u}},
};

void
expectResultEq(const SimResult &got, const SimResult &want,
               const std::string &label)
{
    // The goldens freeze every counter that existed when they were
    // recorded: the registry prefix up to the elim array. Counters
    // appended later (the per-memory-level block) are asserted by
    // their own tests, not frozen here.
    for (const SimStatField &f : simResultFields()) {
        EXPECT_EQ(statValue(got, f), statValue(want, f))
            << label << ": counter '" << f.name << "' diverged from "
            << "the pre-refactor golden result";
        if (std::string_view(f.name) == "elim4")
            break;
    }
}

/**
 * Check one golden case on the harness's 1-core System (runWorkload),
 * which must also report no coherence traffic.
 */
void
expectGolden(const char *src, const RenoConfig &config,
             const GoldenCase &golden)
{
    CoreParams p;
    p.reno = config;
    const Workload w{golden.name, "test", src, 1};
    const SimResult sys = runWorkload(w, p).sim;
    const std::string label = std::string(golden.name) + " (System)";
    expectResultEq(sys, golden.expect, label);
    EXPECT_EQ(sys.cohInvalidations, 0u) << label;
    EXPECT_EQ(sys.cohInterventions, 0u) << label;
    EXPECT_EQ(sys.cohUpgradeMisses, 0u) << label;
    EXPECT_EQ(sys.cohWritebacks, 0u) << label;
}

} // namespace

TEST(PipelineGolden, ViolationSquashReplayByteIdentical)
{
    expectGolden(violationSrc, RenoConfig::baseline(), ViolationGolden[0]);
    expectGolden(violationSrc, RenoConfig::full(), ViolationGolden[1]);
}

TEST(PipelineGolden, MisintegrationWorkloadByteIdentical)
{
    expectGolden(misintegSrc, RenoConfig::full(), MisintegGolden);
}

TEST(PipelineGolden, MixedKernelByteIdenticalAcrossConfigs)
{
    expectGolden(mixedSrc, RenoConfig::baseline(), MixedGolden[0]);
    expectGolden(mixedSrc, RenoConfig::full(), MixedGolden[1]);
    expectGolden(mixedSrc, RenoConfig::fullIt(), MixedGolden[2]);
}

// ---- stall-counter attribution ------------------------------------------

TEST(PipelineStalls, RobPressureChargedToStallRob)
{
    // Serial dependent cache-missing loads with a tiny ROB: rename
    // backs up on the full ROB, not on the (larger) issue queue.
    const char *src =
        ".data\nbuf: .space 262144\n.text\n"
        "  la s0, buf\n  li s1, 4000\n"
        "loop:\n"
        "  ldq t0, 0(s0)\n"
        "  add s0, s0, t0\n"
        "  addi s0, s0, 64\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    p.robEntries = 8;
    p.iqEntries = 50;
    const SimResult r = runKernel(src, p).sim;
    EXPECT_GT(r.stallRob, 0u);
    EXPECT_EQ(r.stallIq, 0u)
        << "the ROB (8) fills before the issue queue (50) can";
}

TEST(PipelineStalls, IqPressureChargedToStallIq)
{
    // A long multiply dependence chain with a tiny issue queue inside
    // a big ROB: unissued work piles up in the IQ.
    const char *src =
        "  li s1, 2000\n  li t0, 3\n"
        "loop:\n"
        "  mul t0, t0, t0\n"
        "  mul t0, t0, t0\n"
        "  mul t0, t0, t0\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    p.iqEntries = 4;
    const SimResult r = runKernel(src, p).sim;
    EXPECT_GT(r.stallIq, 0u);
    EXPECT_EQ(r.stallRob, 0u);
}

TEST(PipelineStalls, PregPressureChargedToStallPregs)
{
    // Every instruction writes a register; with barely more physical
    // registers than architectural ones, rename starves for pregs.
    const char *src =
        "  li s1, 2000\n  li t0, 3\n"
        "loop:\n"
        "  mul t1, t0, t0\n"
        "  mul t2, t1, t1\n"
        "  mul t3, t2, t2\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    p.numPregs = NumLogRegs + 2;
    const SimResult r = runKernel(src, p).sim;
    EXPECT_GT(r.stallPregs, 0u);
}

TEST(PipelineStalls, StoreQueuePressureChargedToStallLsq)
{
    const char *src =
        ".data\nbuf: .space 4096\n.text\n"
        "  la s0, buf\n  li s1, 2000\n"
        "loop:\n"
        "  stq s1, 0(s0)\n"
        "  stq s1, 8(s0)\n"
        "  stq s1, 16(s0)\n"
        "  stq s1, 24(s0)\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    p.sqEntries = 2;
    const SimResult r = runKernel(src, p).sim;
    EXPECT_GT(r.stallLsq, 0u);
}

// ---- SimResult window delta/accumulate algebra -------------------------

TEST(SimResultWindows, WindowDeltasMatchFullRun)
{
    // Two windows over one run: boundary-snapshot deltas must
    // accumulate to the final totals (what runIntervalDetailed relies
    // on).
    const Program prog = assemble(mixedSrc);
    Emulator emu(prog);
    CoreParams p;
    p.reno = RenoConfig::full();
    System sys(p, {&emu});

    const SimResult r0 = sys.result();
    sys.runUntilRetired(3000);
    const SimResult r1 = sys.result();
    sys.run();
    const SimResult r2 = sys.result();

    SimResult acc;
    sample::accumulateResult(acc, sample::deltaResult(r1, r0));
    sample::accumulateResult(acc, sample::deltaResult(r2, r1));
    expectResultEq(acc, r2, "window-accumulate");
}

// ---- instruction arena ---------------------------------------------------

TEST(PipelineArena, RecyclesInsteadOfGrowing)
{
    // Thousands of retired instructions and violation squash/replay
    // churn, yet the in-flight population never exceeds one slab.
    const Program prog = assemble(violationSrc);
    Emulator emu(prog);
    CoreParams p;
    p.reno = RenoConfig::full();
    System sys(p, {&emu});
    const SimResult r = sys.run();
    EXPECT_GT(r.retired, 10000u);
    EXPECT_EQ(sys.core(0).machineState().arena.slabCount(), 1u);
}

TEST(PipelineArena, AcquireReturnsResetSlots)
{
    InstArena arena;
    DynInst *a = arena.acquire();
    a->renamed = true;
    a->issued = true;
    a->seq = 7;
    arena.release(a);
    DynInst *b = arena.acquire();
    ASSERT_EQ(a, b) << "LIFO recycling should hand back the same slot";
    EXPECT_FALSE(b->renamed);
    EXPECT_FALSE(b->issued);
    EXPECT_FALSE(b->inReadyList);
}

TEST(PipelineFacade, TrivialProgramStillWorks)
{
    const SimResult r = runKernel(exitOnly, CoreParams{}).sim;
    EXPECT_EQ(r.retired, 3u);
    EXPECT_GT(r.cycles, 0u);
}

// ---- frozen schedule digest ---------------------------------------------

namespace
{

/** Folds every retired instruction's schedule into one hash. */
class ScheduleDigest : public RetireListener
{
  public:
    void
    onRetire(const DynInst &d) override
    {
        fnv.update(d.seq)
            .update(d.rec.pc)
            .update(d.renameCycle)
            .update(d.issueCycle)
            .update(d.completeCycle)
            .update(d.retireCycle)
            .update(static_cast<std::uint64_t>(d.issueDom))
            .update(d.domProducer)
            .update(static_cast<std::uint64_t>(d.commitDom))
            .update(static_cast<std::uint64_t>(d.memLevel));
    }

    Fnv64 fnv;
};

/** Run @p body(i) for every i < @p n on a few worker threads: the
 *  cases are independent simulations, so the oracle stays short. */
void
forEachOnPool(std::size_t n, const std::function<void(std::size_t)> &body)
{
    sweep::ThreadPool pool(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&body, i] { body(i); });
    pool.waitIdle();
}

/**
 * Schedule digest of @p suite under @p config: every workload in suite
 * order on a 1-core System, each run to completion or, when @p bound
 * is non-zero, to its first @p bound retired instructions.
 */
std::uint64_t
suiteScheduleDigest(const char *suite, const char *config,
                    unsigned sched_loop, std::uint64_t bound)
{
    NamedConfig cfg;
    EXPECT_TRUE(configByName(config, CoreParams::fourWide(), &cfg));
    cfg.params.schedLoop = sched_loop;
    ScheduleDigest digest;
    for (const Workload *w : suiteWorkloads(suite)) {
        const SpmdEmulators emus(*w, 1);
        System sys(cfg.params, emus.cores());
        sys.core(0).setRetireListener(&digest);
        const SimResult r = bound ? sys.runUntilRetired(bound) : sys.run();
        digest.fnv.update(r.cycles).update(r.retired);
    }
    return digest.fnv.value();
}

struct ScheduleCase {
    const char *suite;
    const char *config;
    unsigned schedLoop;
    std::uint64_t bound;  //!< retired-instruction cap per workload (0: none)
    std::uint64_t digest;
};

/** Recorded on the rescanning scheduler that the event-driven one
 *  replaced; every retired instruction's schedule must match it. */
constexpr ScheduleCase ScheduleGolden[] = {
    {"spec", "BASE", 1, 0, 0xb8559900d75ad26aULL},
    {"spec", "RENO", 1, 0, 0x781d624f9ee4d3c1ULL},
    {"spec", "RENO+FullInteg", 1, 0, 0x3e260c3118c3ff2eULL},
    {"spec", "RENO", 2, 0, 0xfdb3ac647cedffd7ULL},
    {"media", "BASE", 1, 0, 0x8e93bec7454a688fULL},
    {"media", "RENO", 1, 0, 0xf1e388651730111dULL},
    {"media", "RENO+FullInteg", 1, 0, 0x4792e98957190feeULL},
    {"synth", "BASE", 1, 200'000, 0xf8696e9e302633efULL},
    {"synth", "RENO", 1, 200'000, 0xb11df61a0edd0bb8ULL},
    {"synth", "RENO+FullInteg", 1, 200'000, 0xeb12abda03c75cd2ULL},
    {"mem", "BASE", 1, 200'000, 0xeedc68d2a5b5481cULL},
    {"mem", "RENO", 1, 200'000, 0xdb71c683b1849e72ULL},
    {"mem", "RENO+FullInteg", 1, 200'000, 0xc8f9893a8b53b05dULL},
    {"branch", "BASE", 1, 200'000, 0xb826e931855add7dULL},
    {"branch", "RENO", 1, 200'000, 0xbc5d87b3283c2734ULL},
    {"branch", "RENO+FullInteg", 1, 200'000, 0xb2df9fb8b5659c5cULL},
};

// Two stores of one store set in flight behind a load of that set,
// the older one slower: once training has put the load and both
// stores in one set, the load must wait until both have issued. The
// younger store (the one the LFST names) issues first, while the
// older one still waits.
const char *const storeSetChainSrc = R"(
        .data
cell:   .space 64
        .text
_start:
        la   s0, cell
        li   s1, 1000
        li   s2, 1
        li   s3, 0
loop:
        andi t2, s1, 1
        beq  t2, even
        div  t1, s0, s2
        mov  t0, s0
        br   go
even:
        div  t0, s0, s2
        div  t0, t0, s2
        div  t1, s0, s2
go:
        stq  s1, 0(t0)
        stq  s3, 0(t1)
        ldq  t4, 0(s0)
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

/** Schedule digest of one kernel on a 1-core System under
 *  @p config. */
std::uint64_t
kernelScheduleDigest(const char *src, const RenoConfig &config)
{
    const Program prog = assemble(src);
    Emulator emu(prog);
    CoreParams p;
    p.reno = config;
    System sys(p, {&emu});
    ScheduleDigest digest;
    sys.core(0).setRetireListener(&digest);
    const SimResult r = sys.run();
    digest.fnv.update(r.cycles).update(r.violationSquashes);
    return digest.fnv.value();
}

/** Every SimResult registry field before the CPI block, then each
 *  core slot's CPI stack (the text the digests were recorded on). */
std::string
renderMultiCore(const SimResult &sim)
{
    std::string text;
    for (const SimStatField &f : simResultFields()) {
        if (f.offset >= offsetof(SimResult, cpi))
            continue;
        text += strprintf("%s=%llu\n", f.name,
                          static_cast<unsigned long long>(
                              statValue(sim, f)));
    }
    for (unsigned c = 0; c < NumCoreStatSlots; ++c) {
        for (unsigned b = 0; b < NumCpiBuckets; ++b)
            text += strprintf("core%u.%s=%llu\n", c, CpiBucketNames[b],
                              static_cast<unsigned long long>(
                                  sim.cpi[c][b]));
    }
    return text;
}

struct MultiCase {
    const char *workload;
    std::uint64_t digest;  //!< Fnv64 of renderMultiCore's text
};

constexpr MultiCase MultiGolden[] = {
    {"multi.prodcons", 0x4ce822af05136b0aULL},
    {"multi.lock", 0x73889e744f4f741eULL},
    {"multi.false", 0xfce150cf1c5a4baaULL},
    {"multi.false.pad", 0x0eb8562cafd2bae8ULL},
    {"multi.stream", 0x4f4a45ae897008f3ULL},
};

} // namespace

TEST(ScheduleGoldenDigest, EverySuiteUnderEveryConfig)
{
    std::vector<std::uint64_t> got(std::size(ScheduleGolden));
    forEachOnPool(got.size(), [&](std::size_t i) {
        const ScheduleCase &c = ScheduleGolden[i];
        got[i] =
            suiteScheduleDigest(c.suite, c.config, c.schedLoop, c.bound);
    });
    for (std::size_t i = 0; i < got.size(); ++i) {
        const ScheduleCase &c = ScheduleGolden[i];
        EXPECT_EQ(got[i], c.digest)
            << c.suite << " under " << c.config << " (schedLoop "
            << c.schedLoop << "): the schedule diverged";
    }
}

TEST(ScheduleGoldenDigest, StoreSetChainWaitsForOldestStore)
{
    EXPECT_EQ(kernelScheduleDigest(storeSetChainSrc,
                                   RenoConfig::baseline()),
              0x0bcbd1f5130ed4e0ULL);
    EXPECT_EQ(kernelScheduleDigest(storeSetChainSrc, RenoConfig::full()),
              0x349905645314adbbULL);
}

TEST(ScheduleGoldenDigest, MultiSuiteAtFourCores)
{
    NamedConfig cfg;
    ASSERT_TRUE(configByName("RENO/4c", CoreParams::fourWide(), &cfg));
    const std::vector<const Workload *> suite = suiteWorkloads("multi");
    ASSERT_EQ(suite.size(), std::size(MultiGolden));
    std::vector<SimResult> out(suite.size());
    forEachOnPool(suite.size(), [&](std::size_t i) {
        out[i] = runWorkload(*suite[i], cfg.params).sim;
    });
    for (std::size_t i = 0; i < suite.size(); ++i) {
        ASSERT_EQ(suite[i]->name, MultiGolden[i].workload);
        const std::string text = renderMultiCore(out[i]);
        EXPECT_EQ(Fnv64().update(text).value(), MultiGolden[i].digest)
            << suite[i]->name << " diverged; it now reports:\n" << text;
    }
}
