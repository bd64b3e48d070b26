/**
 * @file
 * Integration table tests: tuple matching on every key field,
 * signature replacement, LRU eviction, reverse entries, input-preg
 * invalidation, output-register reference holding, and LRU reclaim
 * under register pressure -- including a randomized check of reclaim
 * against a brute-force recount of the table.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "reno/integration_table.hpp"
#include "reno/physregs.hpp"

using namespace reno;

namespace
{

ItEntry
loadTuple(PhysReg base, std::int16_t bdisp, std::int32_t imm,
          PhysReg out, bool reverse = false)
{
    ItEntry e;
    e.reverse = reverse;
    e.op = Opcode::LDQ;
    e.imm = imm;
    e.in1 = MapEntry{base, bdisp};
    e.out = MapEntry{out, 0};
    return e;
}

} // namespace

TEST(It, InsertThenLookupHits)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9));
    const ItSlot slot =
        it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{});
    ASSERT_NE(slot, InvalidItSlot);
    EXPECT_EQ(it.entry(slot).out.preg, 9);
    EXPECT_EQ(it.hits(), 1u);
}

TEST(It, EveryKeyFieldMatters)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 4, 8, 9));
    // Different opcode.
    EXPECT_EQ(it.lookup(Opcode::LDL, 8, MapEntry{5, 4}, MapEntry{}),
              InvalidItSlot);
    // Different immediate.
    EXPECT_EQ(it.lookup(Opcode::LDQ, 16, MapEntry{5, 4}, MapEntry{}),
              InvalidItSlot);
    // Different input register.
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{6, 4}, MapEntry{}),
              InvalidItSlot);
    // Different input displacement (RENO_CF extension).
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{}),
              InvalidItSlot);
    // Exact match.
    EXPECT_NE(it.lookup(Opcode::LDQ, 8, MapEntry{5, 4}, MapEntry{}),
              InvalidItSlot);
}

TEST(It, SecondInputParticipates)
{
    IntegrationTable it(ItParams{64, 2});
    ItEntry e;
    e.op = Opcode::ADD;
    e.in1 = MapEntry{1, 0};
    e.in2 = MapEntry{2, 0};
    e.out = MapEntry{3, 0};
    it.insert(e);
    EXPECT_NE(it.lookup(Opcode::ADD, 0, MapEntry{1, 0}, MapEntry{2, 0}),
              InvalidItSlot);
    EXPECT_EQ(it.lookup(Opcode::ADD, 0, MapEntry{1, 0}, MapEntry{7, 0}),
              InvalidItSlot);
}

TEST(It, SignatureReplacementKeepsNewest)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9));
    it.insert(loadTuple(5, 0, 8, 11));  // same signature, new output
    const ItSlot slot =
        it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{});
    ASSERT_NE(slot, InvalidItSlot);
    EXPECT_EQ(it.entry(slot).out.preg, 11);
}

TEST(It, ReverseFlagPreserved)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9, true));
    const ItSlot slot =
        it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{});
    ASSERT_NE(slot, InvalidItSlot);
    EXPECT_TRUE(it.entry(slot).reverse);
}

TEST(It, InvalidateSlot)
{
    IntegrationTable it(ItParams{64, 2});
    const ItSlot slot = it.insert(loadTuple(5, 0, 8, 9));
    it.invalidateSlot(slot);
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{}),
              InvalidItSlot);
    EXPECT_EQ(it.invalidations(), 1u);
    it.invalidateSlot(slot);  // idempotent
    EXPECT_EQ(it.invalidations(), 1u);
}

TEST(It, InvalidatePregKillsEntriesUsingItAsInput)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9));
    it.insert(loadTuple(6, 0, 8, 10));
    it.invalidatePreg(5);
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{}),
              InvalidItSlot);
    EXPECT_NE(it.lookup(Opcode::LDQ, 8, MapEntry{6, 0}, MapEntry{}),
              InvalidItSlot);
}

TEST(It, AccessAndInsertionCounters)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9));
    it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{});
    it.lookup(Opcode::LDQ, 9, MapEntry{5, 0}, MapEntry{});
    EXPECT_EQ(it.accesses(), 3u);  // 1 insert + 2 lookups
    EXPECT_EQ(it.insertions(), 1u);
    EXPECT_EQ(it.hits(), 1u);
}

TEST(It, OutputRegisterReferenceHeld)
{
    PhysRegFile prf(16);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg out = prf.alloc();
    EXPECT_EQ(prf.refCount(out), 1u);
    const ItSlot slot = it.insert(loadTuple(3, 0, 8, out));
    EXPECT_EQ(prf.refCount(out), 2u);

    // Architectural overwrite: value survives via the IT reference.
    prf.decRef(out);
    EXPECT_EQ(prf.refCount(out), 1u);

    // Invalidation releases the last reference.
    it.invalidateSlot(slot);
    EXPECT_EQ(prf.refCount(out), 0u);
    EXPECT_EQ(prf.numFree(), 16u);
}

TEST(It, EvictionReleasesReference)
{
    PhysRegFile prf(64);
    // Tiny direct-mapped table: one set, one way.
    IntegrationTable it(ItParams{1, 1});
    it.attachRegFile(&prf);

    const PhysReg a = prf.alloc();
    const PhysReg b = prf.alloc();
    it.insert(loadTuple(3, 0, 8, a));
    EXPECT_EQ(prf.refCount(a), 2u);
    it.insert(loadTuple(4, 0, 16, b));  // evicts the first tuple
    EXPECT_EQ(prf.refCount(a), 1u);
    EXPECT_EQ(prf.refCount(b), 2u);
}

TEST(It, CascadingInvalidation)
{
    // Entry X's output feeds entry Y's input; freeing X's input kills
    // X, which frees X's output, which kills Y.
    PhysRegFile prf(16);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg p_in = prf.alloc();
    const PhysReg p_mid = prf.alloc();
    const PhysReg p_out = prf.alloc();
    it.insert(loadTuple(p_in, 0, 8, p_mid));
    it.insert(loadTuple(p_mid, 0, 16, p_out));

    // Drop architectural references to mid and out; both survive on
    // table references.
    prf.decRef(p_mid);
    prf.decRef(p_out);
    EXPECT_EQ(prf.refCount(p_mid), 1u);
    EXPECT_EQ(prf.refCount(p_out), 1u);

    // Freeing p_in invalidates the first entry, freeing p_mid, which
    // invalidates the second, freeing p_out.
    prf.setOnFree([&](PhysReg p) { it.invalidatePreg(p); });
    prf.decRef(p_in);
    EXPECT_EQ(prf.refCount(p_mid), 0u);
    EXPECT_EQ(prf.refCount(p_out), 0u);
}

TEST(It, ReclaimLruFreesTableOnlyRegisters)
{
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg held = prf.alloc();   // stays architecturally mapped
    const PhysReg loose = prf.alloc();  // will be table-only
    it.insert(loadTuple(3, 0, 8, held));
    it.insert(loadTuple(3, 0, 16, loose));
    prf.decRef(loose);  // only the IT holds it now

    const unsigned free_before = prf.numFree();
    EXPECT_TRUE(it.reclaimLru());
    EXPECT_EQ(prf.numFree(), free_before + 1);
    EXPECT_EQ(prf.refCount(loose), 0u);
    // The architecturally-held tuple was not touched.
    EXPECT_NE(it.lookup(Opcode::LDQ, 8, MapEntry{3, 0}, MapEntry{}),
              InvalidItSlot);

    // Nothing reclaimable left.
    EXPECT_FALSE(it.reclaimLru());
}

TEST(It, ReclaimFreesMultiplyPinnedRegisters)
{
    // Regression: a register pinned by SEVERAL tuples (e.g. a forward
    // and a reverse entry) has refcount > 1 with no single entry
    // "owning" it. Reclaim must recognize that the table holds all of
    // its references and release every pinning entry, or a small
    // register pool deadlocks (rename waits forever for a free
    // register).
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg shared = prf.alloc();
    it.insert(loadTuple(3, 0, 8, shared));
    it.insert(loadTuple(3, 0, 16, shared));   // second pin
    prf.decRef(shared);  // drop the alloc ref: only the pins remain
    EXPECT_EQ(prf.refCount(shared), 2u) << "two table pins";

    const unsigned free_before = prf.numFree();
    EXPECT_TRUE(it.reclaimLru());
    EXPECT_EQ(prf.refCount(shared), 0u)
        << "both pinning entries must be released";
    EXPECT_EQ(prf.numFree(), free_before + 1);
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{3, 0}, MapEntry{}),
              InvalidItSlot);
    EXPECT_EQ(it.lookup(Opcode::LDQ, 16, MapEntry{3, 0}, MapEntry{}),
              InvalidItSlot);
}

TEST(It, ReclaimSkipsRegistersWithOutsideReferences)
{
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg held = prf.alloc();  // alloc ref = architectural
    it.insert(loadTuple(3, 0, 8, held));
    it.insert(loadTuple(3, 0, 16, held));
    EXPECT_EQ(prf.refCount(held), 3u);

    // refcount (3) != table pins (2): not table-only, must not free.
    EXPECT_FALSE(it.reclaimLru());
    EXPECT_EQ(prf.refCount(held), 3u);
}

TEST(It, ResetReleasesEverything)
{
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);
    const PhysReg p = prf.alloc();
    it.insert(loadTuple(3, 0, 8, p));
    prf.decRef(p);
    it.reset();
    EXPECT_EQ(prf.numFree(), 8u);
}

TEST(It, RejectsBadGeometry)
{
    EXPECT_EXIT((IntegrationTable{ItParams{3, 2}}),
                ::testing::ExitedWithCode(1), "multiple");
}

namespace
{

/** Valid entries whose output is @p preg, recounted slot by slot. */
unsigned
recountPins(const IntegrationTable &it, PhysReg preg)
{
    unsigned pins = 0;
    for (ItSlot slot = 0; slot < it.numEntries(); ++slot) {
        if (it.valid(slot) && it.entry(slot).out.preg == preg)
            ++pins;
    }
    return pins;
}

} // namespace

TEST(It, ReclaimMatchesBruteForceOnRandomSequences)
{
    // Random inserts, lookups, outside references and reclaims, wired
    // like the renamer (a freed register invalidates its input uses).
    // Before every reclaim, a brute-force recount names the register
    // that must go (the least-recently-used entry whose register the
    // table alone holds); after every step each register's count must
    // equal its outside references plus the table's pins.
    constexpr unsigned NumPregs = 24;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        PhysRegFile prf(NumPregs);
        IntegrationTable it(ItParams{16, 2});
        prf.setOnFree([&it](PhysReg p) { it.invalidatePreg(p); });
        it.attachRegFile(&prf);
        std::vector<unsigned> outside(NumPregs, 0);
        Rng rng(seed);

        // A register the table, the outside or both hold; with
        // @p outside_only, one the outside holds (as the renaming
        // instruction holds the output of the tuple it inserts).
        auto pick = [&](bool outside_only, PhysReg *out) {
            std::vector<PhysReg> held;
            for (PhysReg r = 0; r < NumPregs; ++r) {
                if (outside_only ? outside[r] > 0 : prf.refCount(r) > 0)
                    held.push_back(r);
            }
            if (held.empty())
                return false;
            *out = held[rng.below(held.size())];
            return true;
        };

        for (unsigned step = 0; step < 2000; ++step) {
            PhysReg p = 0, q = 0;
            switch (rng.below(6)) {
              case 0:
                if (prf.hasFree())
                    ++outside[prf.alloc()];
                break;
              case 1:
                if (pick(false, &p)) {
                    prf.incRef(p);
                    ++outside[p];
                }
                break;
              case 2:
                if (pick(true, &p)) {
                    --outside[p];
                    prf.decRef(p);
                }
                break;
              case 3:
                if (pick(true, &p) && pick(false, &q)) {
                    it.insert(loadTuple(
                        q, 0, static_cast<std::int32_t>(rng.below(4)),
                        p, rng.chance(50)));
                }
                break;
              case 4:
                if (pick(false, &q)) {
                    it.lookup(Opcode::LDQ,
                              static_cast<std::int32_t>(rng.below(4)),
                              MapEntry{q, 0}, MapEntry{});
                }
                break;
              case 5: {
                ItSlot victim = InvalidItSlot;
                for (ItSlot slot = 0; slot < it.numEntries(); ++slot) {
                    if (!it.valid(slot))
                        continue;
                    const ItEntry &e = it.entry(slot);
                    if (prf.refCount(e.out.preg) !=
                        recountPins(it, e.out.preg))
                        continue;
                    if (victim == InvalidItSlot ||
                        e.lruStamp < it.entry(victim).lruStamp)
                        victim = slot;
                }
                const PhysReg target = victim == InvalidItSlot
                    ? InvalidPhysReg : it.entry(victim).out.preg;
                const bool freed = it.reclaimLru();
                ASSERT_EQ(freed, victim != InvalidItSlot)
                    << "seed " << seed << " step " << step;
                if (freed) {
                    // The brute-force victim's register went, with
                    // every pin on it.
                    EXPECT_FALSE(it.valid(victim));
                    EXPECT_EQ(prf.refCount(target), 0u);
                    EXPECT_EQ(recountPins(it, target), 0u);
                }
                break;
              }
            }
            for (PhysReg r = 0; r < NumPregs; ++r) {
                ASSERT_EQ(prf.refCount(r), outside[r] + recountPins(it, r))
                    << "seed " << seed << " step " << step << " p" << r;
            }
        }
    }
}
