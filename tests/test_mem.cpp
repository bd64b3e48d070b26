/**
 * @file
 * Memory substrate tests: sparse memory, cache hit/miss behavior,
 * LRU replacement, MSHR merging, bus contention, write-back and
 * prefetch modeling, and hierarchies of configurable depth, plus a
 * frozen digest of a seeded stream's ready cycles, counters and tags.
 */
#include <gtest/gtest.h>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "mem/hierarchy.hpp"
#include "mem/sparse_memory.hpp"

using namespace reno;

TEST(SparseMemory, ReadsZeroWhenUntouched)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(SparseMemory, LittleEndianMultiByte)
{
    SparseMemory m;
    m.write(0x100, 0x1122334455667788ULL, 8);
    EXPECT_EQ(m.readByte(0x100), 0x88);
    EXPECT_EQ(m.readByte(0x107), 0x11);
    EXPECT_EQ(m.read(0x100, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x104, 4), 0x11223344u);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory m;
    const Addr addr = SparseMemory::PageSize - 4;
    m.write(addr, 0xaabbccdd11223344ULL, 8);
    EXPECT_EQ(m.read(addr, 8), 0xaabbccdd11223344ULL);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(SparseMemory, LoadBuffer)
{
    SparseMemory m;
    const std::uint8_t data[] = {1, 2, 3, 4};
    m.load(0x2000, data, sizeof(data));
    EXPECT_EQ(m.read(0x2000, 4), 0x04030201u);
}

TEST(SparseMemory, ReadString)
{
    SparseMemory m;
    const char *s = "reno";
    m.load(0x300, reinterpret_cast<const std::uint8_t *>(s), 5);
    EXPECT_EQ(m.readString(0x300), "reno");
}

TEST(SparseMemory, DigestSensitivity)
{
    SparseMemory a, b;
    a.write(0x100, 1, 8);
    b.write(0x100, 1, 8);
    EXPECT_EQ(a.digest(), b.digest());
    b.write(0x108, 1, 1);
    EXPECT_NE(a.digest(), b.digest());
    // Same value at a different address also differs.
    SparseMemory c;
    c.write(0x200, 1, 8);
    EXPECT_NE(a.digest(), c.digest());
}

// ---- single cache ----------------------------------------------------

namespace
{

/** Next-level stub with fixed latency, counting request kinds. */
struct NextLevelStub final : MemLevel {
    unsigned latency = 50;
    unsigned calls = 0;       //!< fills (demand + prefetch)
    unsigned prefetches = 0;  //!< prefetch-kind fills
    unsigned writebacks = 0;  //!< victims drained into us
    std::vector<Addr> writebackAddrs;
    std::string label = "stub";

    Cycle
    access(Addr addr, Cycle now, MemAccessKind kind) override
    {
        if (kind == MemAccessKind::Writeback) {
            ++writebacks;
            writebackAddrs.push_back(addr);
            return now;
        }
        if (kind == MemAccessKind::Prefetch)
            ++prefetches;
        ++calls;
        return now + latency;
    }
    bool probe(Addr) const override { return true; }
    void flush() override {}
    const std::string &name() const override { return label; }
};

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = 256;  // 4 sets x 2 ways x 32B
    p.assoc = 2;
    p.blockBytes = 32;
    p.latency = 2;
    p.numMshrs = 2;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);

    const Cycle t1 = c.access(0x1000, 0, MemAccessKind::Read);
    EXPECT_EQ(t1, 0u + 2 + 50 + 2);  // miss: latency + fill + latency
    EXPECT_EQ(c.misses(), 1u);

    const Cycle t2 = c.access(0x1000, t1, MemAccessKind::Read);
    EXPECT_EQ(t2, t1 + 2);  // hit
    EXPECT_EQ(c.hits(), 1u);

    // Same block, different byte: still a hit.
    EXPECT_EQ(c.access(0x101f, t2, MemAccessKind::Read), t2 + 2);
    // Adjacent block: miss.
    c.access(0x1020, t2, MemAccessKind::Read);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, ProbeDoesNotTouchState)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    EXPECT_FALSE(c.probe(0x1000));
    c.access(0x1000, 0, MemAccessKind::Read);
    const Cycle fill = 100;
    EXPECT_TRUE(c.probe(0x1000)) << "filled after access";
    EXPECT_EQ(c.hits(), 0u);
    (void)fill;
}

TEST(Cache, LruEviction)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    // 4 sets of 2 ways; blocks mapping to set 0: block numbers 0, 4, 8.
    Cycle t = 0;
    t = c.access(0 * 32, t, MemAccessKind::Read);       // A
    t = c.access(4 * 32, t, MemAccessKind::Read);       // B
    t = c.access(0 * 32, t, MemAccessKind::Read);       // touch A (B becomes LRU)
    t = c.access(8 * 32, t, MemAccessKind::Read);       // C evicts B
    EXPECT_TRUE(c.probe(0 * 32));
    EXPECT_FALSE(c.probe(4 * 32));
    EXPECT_TRUE(c.probe(8 * 32));
}

TEST(Cache, MshrMergesSameBlock)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    const Cycle t1 = c.access(0x1000, 0, MemAccessKind::Read);
    // Second access to the same block before the fill completes merges
    // into the outstanding miss rather than re-requesting.
    const Cycle t2 = c.access(0x1008, 1, MemAccessKind::Read);
    EXPECT_EQ(next.calls, 1u);
    EXPECT_EQ(c.mshrMerges(), 1u);
    EXPECT_LE(t2, t1 + 2);
}

TEST(Cache, MshrLimitSerializes)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);  // 2 MSHRs
    const Cycle a = c.access(0x0000, 0, MemAccessKind::Read);
    const Cycle b = c.access(0x2000, 0, MemAccessKind::Read);
    // Third distinct miss must wait for an MSHR.
    const Cycle d = c.access(0x4000, 0, MemAccessKind::Read);
    EXPECT_GT(d, a);
    EXPECT_GT(d, b);
    EXPECT_EQ(next.calls, 3u);
}

TEST(Cache, FlushInvalidatesEverything)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    Cycle t = c.access(0x1000, 0, MemAccessKind::Read);
    EXPECT_TRUE(c.probe(0x1000));
    c.flush();
    EXPECT_FALSE(c.probe(0x1000));
    (void)t;
}

// ---- hierarchy --------------------------------------------------------

TEST(Hierarchy, PaperLatencies)
{
    MemHierarchy mem;  // paper configuration

    // Cold D$ access: D$(2) + L2(10) + memory(100) + bus transfer
    // (64B / 16B * 4 = 16 cycles) + return path.
    const Cycle cold = mem.dataAccess(0x10000, 0, false);
    EXPECT_GT(cold, 100u);

    // Hot access: pure D$ latency.
    const Cycle hot = mem.dataAccess(0x10000, cold, false);
    EXPECT_EQ(hot, cold + 2);

    // Neighbor in the same 64B L2 line but different 32B D$ line:
    // misses the D$ but hits the L2.
    const Cycle l2hit = mem.dataAccess(0x10020, hot, false);
    EXPECT_EQ(l2hit, hot + 2 + 10 + 2);
}

TEST(Hierarchy, InstructionFetchPath)
{
    MemHierarchy mem;
    const Cycle cold = mem.fetchAccess(0x1000, 0);
    EXPECT_GT(cold, 100u);
    const Cycle hot = mem.fetchAccess(0x1000, cold);
    EXPECT_EQ(hot, cold + 1);  // 1-cycle I$
}

TEST(Hierarchy, SharedL2BetweenIAndD)
{
    MemHierarchy mem;
    mem.fetchAccess(0x40000, 0);
    // A D$ access to the same 64B line: L2 hit (I-fetch filled it).
    const Cycle t = mem.dataAccess(0x40010, 1000, false);
    EXPECT_EQ(t, 1000u + 2 + 10 + 2);
    EXPECT_TRUE(mem.l2Probe(0x40000));
}

TEST(Hierarchy, BusContentionSerializesMisses)
{
    MemHierarchy mem;
    const Cycle a = mem.dataAccess(0x100000, 0, false);
    const Cycle b = mem.dataAccess(0x200000, 0, false);
    // Both go to memory; the second's bus transfer queues behind the
    // first's.
    EXPECT_GT(b, a);
}

TEST(Hierarchy, ProbesReportLevels)
{
    MemHierarchy mem;
    EXPECT_FALSE(mem.dcacheProbe(0x5000));
    EXPECT_FALSE(mem.l2Probe(0x5000));
    mem.dataAccess(0x5000, 0, false);
    EXPECT_TRUE(mem.dcacheProbe(0x5000));
    EXPECT_TRUE(mem.l2Probe(0x5000));
    mem.flush();
    EXPECT_FALSE(mem.dcacheProbe(0x5000));
}

TEST(Hierarchy, WritesAllocate)
{
    MemHierarchy mem;
    mem.dataAccess(0x7000, 0, true);
    EXPECT_TRUE(mem.dcacheProbe(0x7000));
    EXPECT_GT(mem.dcache().misses(), 0u);
}

// ---- checkpointing support (sampled simulation) ---------------------

TEST(SparseMemory, SnapshotRestoreDigestRoundTrip)
{
    SparseMemory m;
    m.write(0x1000, 0xdeadbeefcafef00dULL, 8);
    m.write(0x7ff123, 0x42, 1);
    const std::uint64_t digest = m.digest();

    const SparseMemory snap = m.snapshot();
    EXPECT_EQ(snap.digest(), digest);
    EXPECT_TRUE(snap == m);

    // Diverge, then restore: digest and equality must round-trip.
    m.write(0x1000, 0, 8);
    m.write(0x2000000, 7, 1);
    EXPECT_NE(m.digest(), digest);
    EXPECT_FALSE(snap == m);

    m.restore(snap);
    EXPECT_EQ(m.digest(), digest);
    EXPECT_TRUE(m == snap);
    EXPECT_EQ(m.read(0x1000, 8), 0xdeadbeefcafef00dULL);
}

TEST(SparseMemory, EqualityDistinguishesAllocatedZeroPages)
{
    // An explicitly written-then-zeroed page is allocated; an
    // untouched one is not. digest() distinguishes them, so equality
    // must too.
    SparseMemory a, b;
    a.write(0x5000, 0, 8);
    EXPECT_EQ(a.numPages(), 1u);
    EXPECT_EQ(b.numPages(), 0u);
    EXPECT_FALSE(a == b);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(SparseMemory, PagesExposesAllocatedContents)
{
    SparseMemory m;
    m.write(0x1004, 0x11223344, 4);
    ASSERT_EQ(m.pages().size(), 1u);
    const auto &[page_num, page] = *m.pages().begin();
    EXPECT_EQ(page_num, 0x1004u >> SparseMemory::PageBits);
    EXPECT_EQ(page.size(), SparseMemory::PageSize);
    EXPECT_EQ(page[4], 0x44);
}

TEST(Cache, CopyStateFromReproducesHitsAndLru)
{
    const CacheParams params{"c", 256, 2, 32, 1, 4};
    NextLevelStub next;
    next.latency = 10;
    Cache a(params, &next);
    a.access(0x000, 0, MemAccessKind::Read);
    a.access(0x100, 5, MemAccessKind::Read);

    Cache b(params, &next);
    b.copyStateFrom(a);
    EXPECT_TRUE(b.probe(0x000));
    EXPECT_TRUE(b.probe(0x100));
    EXPECT_EQ(b.misses(), a.misses());

    // Export/import round-trip preserves the tag state.
    Cache c(params, &next);
    EXPECT_TRUE(c.importState(a.exportState()));
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_TRUE(c.probe(0x100));
    EXPECT_FALSE(c.probe(0x200));
}

TEST(Hierarchy, CopyStateFromAndSettle)
{
    MemHierarchy a;
    a.dataAccess(0x4000, 0, false);
    a.fetchAccess(0x1000, 0);

    MemHierarchy b;
    b.copyStateFrom(a);
    EXPECT_TRUE(b.dcacheProbe(0x4000));
    EXPECT_TRUE(b.l2Probe(0x4000));
    b.settle();
    EXPECT_TRUE(b.dcacheProbe(0x4000)) << "settle keeps tags";

    MemHierarchy c;
    EXPECT_TRUE(c.importState(a.exportState()));
    EXPECT_TRUE(c.dcacheProbe(0x4000));
    EXPECT_TRUE(c.l2Probe(0x4000));
}

// ---- parameter validation ---------------------------------------------

TEST(CacheValidation, RejectsDegenerateGeometry)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.assoc = 0;
    EXPECT_DEATH(Cache(p, &next), "associativity");

    p = smallCache();
    p.blockBytes = 0;
    EXPECT_DEATH(Cache(p, &next), "power of two");

    p = smallCache();
    p.blockBytes = 48;  // non-power-of-two
    EXPECT_DEATH(Cache(p, &next), "power of two");

    p = smallCache();
    p.numMshrs = 0;
    EXPECT_DEATH(Cache(p, &next), "MSHR");

    p = smallCache();
    p.sizeBytes = 32;  // smaller than one 2-way 32B set
    EXPECT_DEATH(Cache(p, &next), "smaller than one set");
}

TEST(CacheValidation, RejectsBadPrefetcherAndMemoryParams)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.prefetch.kind = PrefetchKind::Stride;
    p.prefetch.tableEntries = 0;
    EXPECT_DEATH(Cache(p, &next), "table");

    p = smallCache();
    p.prefetch.kind = PrefetchKind::NextLine;
    p.prefetch.degree = 0;
    EXPECT_DEATH(Cache(p, &next), "degree");

    MemoryParams m;
    m.busBytes = 0;
    EXPECT_DEATH(MainMemory(m, 64), "bus width");
    m = MemoryParams{};
    m.busClockDivider = 0;
    EXPECT_DEATH(MainMemory(m, 64), "divider");
}

// ---- write-back modeling ----------------------------------------------

TEST(Cache, DirtyVictimCountsWriteback)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);  // writebackTraffic off
    // Write block 0 (set 0), then fill two more set-0 blocks to evict
    // the dirty line.
    Cycle t = c.access(0 * 32, 0, MemAccessKind::Write);
    t = c.access(4 * 32, t, MemAccessKind::Read);
    t = c.access(8 * 32, t, MemAccessKind::Read);
    EXPECT_EQ(c.writebacks(), 1u);
    EXPECT_EQ(next.writebacks, 0u) << "traffic modeling is off";
}

TEST(Cache, WritebackTrafficReachesNextLevel)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.writebackTraffic = true;
    Cache c(p, &next);
    Cycle t = c.access(0 * 32, 0, MemAccessKind::Write);
    t = c.access(4 * 32, t, MemAccessKind::Read);
    t = c.access(8 * 32, t, MemAccessKind::Read);
    EXPECT_EQ(c.writebacks(), 1u);
    ASSERT_EQ(next.writebacks, 1u);
    EXPECT_EQ(next.writebackAddrs[0], 0u) << "victim block address";
    // A clean victim produces no traffic: re-evict a read-only line.
    t = c.access(12 * 32, t, MemAccessKind::Read);
    EXPECT_EQ(next.writebacks, 1u);
}

TEST(Cache, WritebackKindUpdatesInPlaceOrForwards)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    c.access(0x1000, 0, MemAccessKind::Read);
    // Present: absorbed by this level, no next-level traffic.
    c.access(0x1000, 100, MemAccessKind::Writeback);
    EXPECT_EQ(next.writebacks, 0u);
    // Absent: forwarded without allocating.
    c.access(0x8000, 100, MemAccessKind::Writeback);
    EXPECT_EQ(next.writebacks, 1u);
    EXPECT_FALSE(c.probe(0x8000));
}

TEST(MainMemory, WritebackOccupiesBusWithoutDramLatency)
{
    MainMemory mem(MemoryParams{}, 64);  // 16 transfer cycles
    const Cycle rd = mem.access(0, 0, MemAccessKind::Read);
    EXPECT_EQ(rd, 0u + 100 + 16);
    // Queued behind the read, transfer only.
    const Cycle wb = mem.access(64, 0, MemAccessKind::Writeback);
    EXPECT_EQ(wb, rd + 16);
    EXPECT_EQ(mem.reads(), 1u);
    EXPECT_EQ(mem.writebacks(), 1u);
}

// ---- prefetchers ------------------------------------------------------

TEST(Prefetch, NextLineFillsAhead)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.sizeBytes = 2048;  // room for the prefetched neighbors
    p.prefetch.kind = PrefetchKind::NextLine;
    p.prefetch.degree = 2;
    Cache c(p, &next);

    c.access(0 * 32, 0, MemAccessKind::Read);  // miss: prefetch 1, 2
    EXPECT_EQ(c.prefetchIssued(), 2u);
    EXPECT_EQ(next.prefetches, 2u);
    EXPECT_TRUE(c.probe(1 * 32));
    EXPECT_TRUE(c.probe(2 * 32));

    // Demand touch of a prefetched line counts it useful, once.
    c.access(1 * 32, 1000, MemAccessKind::Read);
    c.access(1 * 32, 2000, MemAccessKind::Read);
    EXPECT_EQ(c.prefetchUseful(), 1u);
}

TEST(Prefetch, StrideLearnsAndRunsAhead)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.sizeBytes = 4096;
    p.prefetch.kind = PrefetchKind::Stride;
    p.prefetch.degree = 1;
    Cache c(p, &next);

    // Stride of 2 blocks (64B) within one 4KB region: blocks 0, 2,
    // 4, 6. The stride is learned at 2, confirmed at 4 and 6; the
    // second confirmation arms the entry.
    Cycle t = 0;
    t = c.access(0 * 32, t, MemAccessKind::Read);
    t = c.access(2 * 32, t, MemAccessKind::Read);   // stride learned
    t = c.access(4 * 32, t, MemAccessKind::Read);   // one confirmation
    EXPECT_EQ(c.prefetchIssued(), 0u) << "not confident yet";
    t = c.access(6 * 32, t, MemAccessKind::Read);   // armed
    EXPECT_GE(c.prefetchIssued(), 1u);
    EXPECT_TRUE(c.probe(8 * 32)) << "runs one stride ahead";
}

TEST(Prefetch, StrideStatePersistsThroughExportImport)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.sizeBytes = 4096;
    p.prefetch.kind = PrefetchKind::Stride;
    p.prefetch.degree = 1;
    Cache a(p, &next);
    Cycle t = 0;
    t = a.access(0 * 32, t, MemAccessKind::Read);
    t = a.access(2 * 32, t, MemAccessKind::Read);
    t = a.access(4 * 32, t, MemAccessKind::Read);

    // Import into a fresh cache: the learned (but not yet armed)
    // stride must carry over, so the next in-stride access arms it
    // there.
    Cache b(p, &next);
    ASSERT_TRUE(b.importState(a.exportState()));
    b.access(6 * 32, t, MemAccessKind::Read);
    EXPECT_GE(b.prefetchIssued(), 1u);
    EXPECT_TRUE(b.probe(8 * 32));

    // And the direct-copy path behaves identically.
    Cache d(p, &next);
    d.copyStateFrom(a);
    d.access(6 * 32, t, MemAccessKind::Read);
    EXPECT_GE(d.prefetchIssued(), 1u);
    EXPECT_TRUE(d.probe(8 * 32));
}

// ---- deeper hierarchies -----------------------------------------------

namespace
{

MemHierarchy::Params
threeLevelParams()
{
    MemHierarchy::Params p;
    CacheParams l3;
    l3.name = "l3";
    l3.sizeBytes = 2 * 1024 * 1024;
    l3.assoc = 8;
    l3.blockBytes = 64;
    l3.latency = 25;
    l3.numMshrs = 32;
    p.extraLevels = {l3};
    return p;
}

} // namespace

TEST(Hierarchy, ThreeLevelStackAddsL3Latency)
{
    MemHierarchy two;
    MemHierarchy three{threeLevelParams()};
    EXPECT_EQ(three.sharedStack().numLevels(), 2u);
    EXPECT_EQ(three.sharedStack().level(1).name(), "l3");

    // The cold path through the deeper stack pays the extra level on
    // both the request and the response leg.
    const Cycle cold2 = two.dataAccess(0x10000, 0, false);
    const Cycle cold3 = three.dataAccess(0x10000, 0, false);
    EXPECT_EQ(cold3, cold2 + 2 * 25);

    // The 32B neighbor misses the D$ but hits the shared stack
    // without another memory trip.
    const MainMemory &memory = three.sharedStack().memory();
    const std::uint64_t mem_reads = memory.reads();
    const Cycle warm = three.dataAccess(0x10020, cold3, false);
    EXPECT_EQ(warm, cold3 + 2 + 10 + 2)
        << "D$ miss, L2 hit (same 64B block)";
    EXPECT_EQ(memory.reads(), mem_reads);
}

TEST(Hierarchy, DepthMismatchedStateIsRejected)
{
    MemHierarchy two;
    MemHierarchy three{threeLevelParams()};
    two.dataAccess(0x4000, 0, false);
    EXPECT_FALSE(three.importState(two.exportState()));
}

TEST(Hierarchy, ThreeLevelStateRoundTrip)
{
    MemHierarchy::Params params = threeLevelParams();
    params.dcache.prefetch.kind = PrefetchKind::Stride;
    MemHierarchy a{params};
    Cycle t = 0;
    t = a.dataAccess(0x4000, t, false);
    t = a.dataAccess(0x4040, t, true);
    t = a.dataAccess(0x4080, t, false);
    a.fetchAccess(0x1000, 0);

    MemHierarchy b{params};
    ASSERT_TRUE(b.importState(a.exportState()));
    EXPECT_TRUE(b.dcacheProbe(0x4000));
    EXPECT_TRUE(b.l2Probe(0x4000));
    EXPECT_TRUE(b.sharedStack().level(1).probe(0x4000));
    // The imported stride table continues the learned pattern: the
    // next in-stride access prefetches in b exactly as it would in a.
    b.settle();
    b.dataAccess(0x40c0, 0, false);
    EXPECT_GE(b.dcache().prefetchIssued(), 1u);
}

TEST(Hierarchy, ModelWritebacksDrainsDirtyVictimsToMemory)
{
    MemHierarchy::Params params;  // paper geometry...
    params.modelWritebacks = true;
    // ...with a tiny direct-mapped D$ so evictions are easy to force.
    params.dcache.sizeBytes = 64;
    params.dcache.assoc = 1;
    params.dcache.blockBytes = 32;
    MemHierarchy mem{params};

    Cycle t = mem.dataAccess(0x0, 0, true);       // dirty block 0
    t = mem.dataAccess(0x40, t, false);           // evicts it (set 0)
    EXPECT_EQ(mem.dcache().writebacks(), 1u);
    // The victim lands in the L2 (which holds the block), not memory.
    EXPECT_EQ(mem.sharedStack().memory().writebacks(), 0u);

    // Force it all the way out: flush the L2 so the drain forwards.
    MemHierarchy::Params deep = params;
    deep.l2.sizeBytes = 128;
    deep.l2.assoc = 1;
    MemHierarchy small{deep};
    t = small.dataAccess(0x0, 0, true);
    // Evict from D$ (set 0) *and* push enough L2 sets to evict the
    // dirty line from the small L2 too.
    t = small.dataAccess(0x40, t, false);
    t = small.dataAccess(0x80, t, false);
    t = small.dataAccess(0xc0, t, false);
    EXPECT_GT(small.dcache().writebacks() +
                  small.sharedStack().level(0).writebacks(),
              0u);
}

// ---- frozen timing golden ---------------------------------------------

namespace
{

/** Digests of one seeded replay through a hierarchy. */
struct TimingDigests {
    std::uint64_t ready = 0;     //!< every returned ready cycle, in order
    std::uint64_t counters = 0;  //!< per-level + memory counters
    std::uint64_t state = 0;     //!< exportState() of every level
};

/**
 * Feed a seeded fetch/load/store stream through @p mem: first 12k
 * accesses at cycle 0 (functional warming: nothing ever retires, so
 * the MSHRs saturate and the prefetch-fill queue stays at its
 * 2 x numMshrs bound), then 24k timed accesses with `now` advancing
 * or repeating, and a same-cycle burst of strided misses every 500
 * accesses (MSHR saturation and a full prefetch queue under timing).
 * The random footprints span every level, so dirty victims drain
 * through the write-back path at each of them.
 */
TimingDigests
replaySeededStream(MemHierarchy &mem)
{
    Rng rng(20261017);
    Fnv64 ready;
    Cycle now = 0;
    Addr stride_ptr = 0x4000000;
    Addr fetch_pc = 0x1000;
    const auto one = [&](bool timed) {
        Cycle r = 0;
        const std::uint64_t pick = rng.below(10);
        if (pick < 2) {
            // Mostly-sequential code with occasional jumps.
            fetch_pc = rng.below(8) == 0
                           ? 0x1000 + rng.below(8 * 1024) * 4
                           : fetch_pc + 4;
            r = mem.fetchAccess(fetch_pc, now);
        } else if (pick < 4) {
            stride_ptr += 3 * 64;
            r = mem.dataAccess(stride_ptr, now, rng.below(4) == 0);
        } else {
            const Addr footprint =
                timed ? Addr{4} << 20 : Addr{512} << 10;
            r = mem.dataAccess(0x8000000 + rng.below(footprint),
                               now, rng.below(10) < 3);
        }
        ready.update(r);
    };

    for (int i = 0; i < 12000; ++i)
        one(false);
    for (int i = 0; i < 24000; ++i) {
        if (i % 500 == 0) {
            for (int b = 0; b < 48; ++b) {
                stride_ptr += 2 * 64;
                ready.update(mem.dataAccess(stride_ptr, now, false));
            }
        }
        if (rng.below(10) >= 3)
            now += 1 + rng.below(12);
        one(true);
    }

    TimingDigests out;
    out.ready = ready.value();
    Fnv64 counters;
    Fnv64 state;
    for (const Cache *level : mem.levels()) {
        counters.update(level->hits());
        counters.update(level->misses());
        counters.update(level->mshrMerges());
        counters.update(level->writebacks());
        counters.update(level->prefetchIssued());
        counters.update(level->prefetchUseful());
        const CacheState s = level->exportState();
        state.update(s.lruClock);
        for (const CacheState::Line &l : s.validLines) {
            state.update(std::uint64_t{l.index});
            state.update(l.tag);
            state.update(l.lruStamp);
            state.update(std::uint64_t{l.dirty});
            state.update(std::uint64_t{l.prefetched});
        }
        for (const PrefetchState::Entry &e : s.prefetch.entries) {
            state.update(std::uint64_t{e.index});
            state.update(e.regionTag);
            state.update(e.lastBlock);
            state.update(static_cast<std::uint64_t>(e.stride));
            state.update(std::uint64_t{e.confidence});
        }
    }
    counters.update(mem.sharedStack().memory().reads());
    counters.update(mem.sharedStack().memory().writebacks());
    out.counters = counters.value();
    out.state = state.value();
    return out;
}

} // namespace

TEST(CacheTimingGolden, SeededStreamMatchesFrozenDigests)
{
    // The MSHR and prefetch-fill tables are timing bookkeeping shared
    // by warming and the detailed core; any change to their
    // representation must keep every ready cycle, counter and tag
    // array exactly. The digests were recorded before the tables
    // became flat arrays.
    CoreParams params = CoreParams::fourWide();
    for (const char *token : {"l3", "pf-stride", "wb"})
        ASSERT_TRUE(applyVariant(token, &params));
    MemHierarchy mem(params.mem);
    const TimingDigests got = replaySeededStream(mem);

    EXPECT_GT(mem.dcache().prefetchIssued(), 0u);
    EXPECT_GT(mem.dcache().writebacks(), 0u);
    EXPECT_GT(mem.sharedStack().memory().writebacks(), 0u);
    EXPECT_EQ(got.ready, 0x026fbb22de2a6dadULL);
    EXPECT_EQ(got.counters, 0x2caa12931e8e090aULL);
    EXPECT_EQ(got.state, 0xe6ec5547409c00bcULL);
}
