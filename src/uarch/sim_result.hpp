/**
 * @file
 * Summary statistics of one simulation run, plus the canonical field
 * registry that single-sources every consumer of those statistics:
 * the result-cache serialization (src/sweep/result_cache.cpp), the
 * sampled-simulation window delta/accumulate algebra
 * (src/sample/interval.cpp), the full named-stat report records
 * (src/sweep/reporter.cpp) and the CPI-stack reports
 * (src/obs/cpireport.cpp). Adding a SimResult field without
 * extending the registry trips the static_assert below instead of
 * silently dropping the field from caches, deltas and reports.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "reno/renamer.hpp"

namespace reno
{

/**
 * Per-cache-level stat slots. The composable hierarchy can be
 * arbitrarily deep, but SimResult is a fixed-layout counter block, so
 * levels map onto four named slots: the split L1s, the L2, and an
 * "l3" slot that aggregates every deeper shared level. (The shipped
 * configurations use at most three levels, so the aggregate slot is
 * exact for them.)
 */
inline constexpr unsigned NumMemStatLevels = 4;
inline constexpr const char *MemStatLevelNames[NumMemStatLevels] = {
    "icache", "dcache", "l2", "l3"};

/**
 * Per-core stat slots of a multi-core System run, mirroring the
 * per-level scheme above: cores 0..2 get their own slot, every deeper
 * core aggregates into the last ("c3") slot. A single-core run fills
 * slot 0 only (coreCycles[0] == cycles).
 */
inline constexpr unsigned NumCoreStatSlots = 4;
inline constexpr const char *CoreStatSlotNames[NumCoreStatSlots] = {
    "c0", "c1", "c2", "c3"};

/**
 * One leaf of the CPI stack: a commit-cycle breakdown in the style of
 * Eyerman et al. (ASPLOS 2006). CommitStage::account() puts every
 * commit-stage cycle in exactly one bucket:
 *
 *   base                     committed >= 1 instruction this cycle
 *   frontend.icache          ROB empty, fetch waiting on the I-cache
 *   frontend.bpred           ROB empty behind a mispredict redirect
 *   backend.rob              head renamed+issued, draining exec latency,
 *                            or rename blocked on a full ROB
 *   backend.iq               head waiting to issue (or rename blocked
 *                            on a full issue queue)
 *   backend.pregs            rename blocked on free physical registers
 *   backend.lsq              head blocked on a memory dependence, a
 *                            store draining, or rename blocked on a
 *                            full LQ/SQ
 *   backend.dcache.l1        head is a load serviced by the L1 / a
 *                            forwarding store (port + hit latency)
 *   backend.dcache.l2        head is a load serviced by a shared level
 *   backend.dcache.mem       head is a load serviced by memory
 *   backend.coherence        head is a load delayed by the MESI bus
 *   drain                    retire-port vortex, squash refill,
 *                            startup/finish bubbles
 *
 * A core ticks its commit stage once per cycle, so a core slot's
 * buckets sum to its coreCycles exactly. Keep in sync with
 * CpiBucketNames and RENO_CPI_SLOT_FIELDS.
 */
enum class CpiBucket : std::uint8_t {
    Base,
    FrontIcache,
    FrontBpred,
    BackRob,
    BackIq,
    BackPregs,
    BackLsq,
    BackDcacheL1,
    BackDcacheL2,
    BackDcacheMem,
    BackCoherence,
    Drain,
};

inline constexpr unsigned NumCpiBuckets = 12;

/** Dotted hierarchical bucket names, the CPI report keys. */
inline constexpr const char *CpiBucketNames[NumCpiBuckets] = {
    "base",           "frontend.icache",   "frontend.bpred",
    "backend.rob",    "backend.iq",        "backend.pregs",
    "backend.lsq",    "backend.dcache.l1", "backend.dcache.l2",
    "backend.dcache.mem", "backend.coherence", "drain"};

/** Summary statistics of one simulation run. All fields are monotonic
 *  counters, so a measurement window's contribution is the field-wise
 *  difference of two snapshots. */
struct SimResult {
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;

    /** Retired instructions collapsed, by ElimKind index. */
    std::uint64_t elim[NumElimKinds] = {};

    std::uint64_t retiredLoads = 0;
    std::uint64_t retiredStores = 0;
    std::uint64_t retiredBranches = 0;

    std::uint64_t itAccesses = 0;
    std::uint64_t itHits = 0;
    std::uint64_t overflowCancels = 0;
    std::uint64_t groupDepCancels = 0;

    std::uint64_t violationSquashes = 0;
    std::uint64_t misintegrationFlushes = 0;

    std::uint64_t bpLookups = 0;
    std::uint64_t bpMispredicts = 0;

    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheMisses = 0;
    std::uint64_t l2Misses = 0;

    std::uint64_t stallRob = 0;
    std::uint64_t stallIq = 0;
    std::uint64_t stallPregs = 0;
    std::uint64_t stallLsq = 0;

    /** Per-level memory-system counters, indexed by the
     *  MemStatLevelNames slot. Misses for the first three slots live
     *  in the icacheMisses/dcacheMisses/l2Misses scalars above;
     *  l3Misses completes the set. */
    std::uint64_t l3Misses = 0;
    std::uint64_t memHits[NumMemStatLevels] = {};
    std::uint64_t memMshrMerges[NumMemStatLevels] = {};
    std::uint64_t memWritebacks[NumMemStatLevels] = {};
    std::uint64_t memPrefetchIssued[NumMemStatLevels] = {};
    std::uint64_t memPrefetchUseful[NumMemStatLevels] = {};

    /** Branch-prediction breakdown (v3): bpMispredicts above is the
     *  sum of the three mispredict components. The TAGE and
     *  perceptron counters are zero under other direction engines. */
    std::uint64_t bpDirMispredicts = 0;
    std::uint64_t bpTargetMispredicts = 0;
    std::uint64_t bpRasMispredicts = 0;
    std::uint64_t bpRasOverflows = 0;
    std::uint64_t bpTageProviderHits = 0;
    std::uint64_t bpTageAltHits = 0;
    std::uint64_t bpPerceptronConfident = 0;

    /** Multi-core block (v4). The coherence counters are the snooping
     *  MESI bus's event totals; the per-core arrays are indexed by the
     *  CoreStatSlotNames slot. All zero on a single-core run except
     *  coreCycles[0]/coreRetired[0], which mirror cycles/retired. */
    std::uint64_t cohInvalidations = 0;
    std::uint64_t cohInterventions = 0;
    std::uint64_t cohUpgradeMisses = 0;
    std::uint64_t cohWritebacks = 0;
    std::uint64_t coreCycles[NumCoreStatSlots] = {};
    std::uint64_t coreRetired[NumCoreStatSlots] = {};

    /** CPI stack (v5): commit-stage cycles by core slot and CpiBucket.
     *  Slots fold like coreCycles, and each slot's buckets sum to its
     *  coreCycles. */
    std::uint64_t cpi[NumCoreStatSlots][NumCpiBuckets] = {};

    /** Whole-machine cycles in bucket @p b: the sum over core slots. */
    std::uint64_t
    cpiCycles(CpiBucket b) const
    {
        std::uint64_t sum = 0;
        for (const auto &slot : cpi)
            sum += slot[static_cast<unsigned>(b)];
        return sum;
    }

    double ipc() const { return cycles ? double(retired) / cycles : 0.0; }

    /** IPC of one core slot (multi-core runs; slot 0 == ipc() for a
     *  single-core run). Aggregated slots report the slot's combined
     *  retired count over its combined cycles. */
    double
    coreIpc(unsigned slot) const
    {
        return slot < NumCoreStatSlots && coreCycles[slot]
            ? double(coreRetired[slot]) / coreCycles[slot] : 0.0;
    }

    std::uint64_t
    eliminatedTotal() const
    {
        std::uint64_t sum = 0;
        for (unsigned k = 1; k < NumElimKinds; ++k)
            sum += elim[k];
        return sum;
    }

    /** Fraction of retired instructions eliminated or folded. */
    double
    elimFraction() const
    {
        return retired ? double(eliminatedTotal()) / retired : 0.0;
    }

    double
    elimFraction(ElimKind kind) const
    {
        return retired
            ? double(elim[static_cast<unsigned>(kind)]) / retired : 0.0;
    }
};

/** One entry of the canonical field registry: a stable name and the
 *  field's byte offset within SimResult. */
struct SimStatField {
    const char *name;
    std::size_t offset;
};

static_assert(std::is_standard_layout_v<SimResult>,
              "SimStatField offsets require standard layout");

// Registry order is the result-cache file order (format "reno-result
// v5"): the scalar counters in declaration order, then the elim
// array, then the per-memory-level counter block appended by v2,
// then the branch-prediction block appended by v3, then the
// multi-core coherence + per-core block appended by v4, then the
// per-core CPI stacks appended by v5. Do not reorder -- persisted
// cache entries depend on it.
#define RENO_ELIM_FIELD(k) \
    {"elim" #k, offsetof(SimResult, elim) + (k) * sizeof(std::uint64_t)}
#define RENO_CORESLOT_FIELDS(arr, suffix)                           \
    {"c0" suffix, offsetof(SimResult, arr)},                        \
    {"c1" suffix,                                                   \
     offsetof(SimResult, arr) + 1 * sizeof(std::uint64_t)},         \
    {"c2" suffix,                                                   \
     offsetof(SimResult, arr) + 2 * sizeof(std::uint64_t)},         \
    {"c3" suffix,                                                   \
     offsetof(SimResult, arr) + 3 * sizeof(std::uint64_t)}
#define RENO_CPI_FIELD(slot, b, name)                              \
    {"c" #slot "Cpi" name,                                         \
     offsetof(SimResult, cpi) +                                    \
         ((slot) * NumCpiBuckets + (b)) * sizeof(std::uint64_t)}
#define RENO_CPI_SLOT_FIELDS(slot)                                 \
    RENO_CPI_FIELD(slot, 0, "Base"),                               \
    RENO_CPI_FIELD(slot, 1, "FrontendIcache"),                     \
    RENO_CPI_FIELD(slot, 2, "FrontendBpred"),                      \
    RENO_CPI_FIELD(slot, 3, "BackendRob"),                         \
    RENO_CPI_FIELD(slot, 4, "BackendIq"),                          \
    RENO_CPI_FIELD(slot, 5, "BackendPregs"),                       \
    RENO_CPI_FIELD(slot, 6, "BackendLsq"),                         \
    RENO_CPI_FIELD(slot, 7, "BackendDcacheL1"),                    \
    RENO_CPI_FIELD(slot, 8, "BackendDcacheL2"),                    \
    RENO_CPI_FIELD(slot, 9, "BackendDcacheMem"),                   \
    RENO_CPI_FIELD(slot, 10, "BackendCoherence"),                  \
    RENO_CPI_FIELD(slot, 11, "Drain")
#define RENO_MEMLEVEL_FIELDS(arr, suffix)                          \
    {"icache" suffix, offsetof(SimResult, arr)},                   \
    {"dcache" suffix,                                              \
     offsetof(SimResult, arr) + 1 * sizeof(std::uint64_t)},        \
    {"l2" suffix,                                                  \
     offsetof(SimResult, arr) + 2 * sizeof(std::uint64_t)},        \
    {"l3" suffix,                                                  \
     offsetof(SimResult, arr) + 3 * sizeof(std::uint64_t)}
inline constexpr SimStatField SimResultFields[] = {
    {"cycles", offsetof(SimResult, cycles)},
    {"retired", offsetof(SimResult, retired)},
    {"retiredLoads", offsetof(SimResult, retiredLoads)},
    {"retiredStores", offsetof(SimResult, retiredStores)},
    {"retiredBranches", offsetof(SimResult, retiredBranches)},
    {"itAccesses", offsetof(SimResult, itAccesses)},
    {"itHits", offsetof(SimResult, itHits)},
    {"overflowCancels", offsetof(SimResult, overflowCancels)},
    {"groupDepCancels", offsetof(SimResult, groupDepCancels)},
    {"violationSquashes", offsetof(SimResult, violationSquashes)},
    {"misintegrationFlushes", offsetof(SimResult, misintegrationFlushes)},
    {"bpLookups", offsetof(SimResult, bpLookups)},
    {"bpMispredicts", offsetof(SimResult, bpMispredicts)},
    {"icacheMisses", offsetof(SimResult, icacheMisses)},
    {"dcacheMisses", offsetof(SimResult, dcacheMisses)},
    {"l2Misses", offsetof(SimResult, l2Misses)},
    {"stallRob", offsetof(SimResult, stallRob)},
    {"stallIq", offsetof(SimResult, stallIq)},
    {"stallPregs", offsetof(SimResult, stallPregs)},
    {"stallLsq", offsetof(SimResult, stallLsq)},
    RENO_ELIM_FIELD(0),
    RENO_ELIM_FIELD(1),
    RENO_ELIM_FIELD(2),
    RENO_ELIM_FIELD(3),
    RENO_ELIM_FIELD(4),
    {"l3Misses", offsetof(SimResult, l3Misses)},
    RENO_MEMLEVEL_FIELDS(memHits, "Hits"),
    RENO_MEMLEVEL_FIELDS(memMshrMerges, "MshrMerges"),
    RENO_MEMLEVEL_FIELDS(memWritebacks, "Writebacks"),
    RENO_MEMLEVEL_FIELDS(memPrefetchIssued, "PrefetchIssued"),
    RENO_MEMLEVEL_FIELDS(memPrefetchUseful, "PrefetchUseful"),
    {"bpDirMispredicts", offsetof(SimResult, bpDirMispredicts)},
    {"bpTargetMispredicts", offsetof(SimResult, bpTargetMispredicts)},
    {"bpRasMispredicts", offsetof(SimResult, bpRasMispredicts)},
    {"bpRasOverflows", offsetof(SimResult, bpRasOverflows)},
    {"bpTageProviderHits", offsetof(SimResult, bpTageProviderHits)},
    {"bpTageAltHits", offsetof(SimResult, bpTageAltHits)},
    {"bpPerceptronConfident",
     offsetof(SimResult, bpPerceptronConfident)},
    {"cohInvalidations", offsetof(SimResult, cohInvalidations)},
    {"cohInterventions", offsetof(SimResult, cohInterventions)},
    {"cohUpgradeMisses", offsetof(SimResult, cohUpgradeMisses)},
    {"cohWritebacks", offsetof(SimResult, cohWritebacks)},
    RENO_CORESLOT_FIELDS(coreCycles, "Cycles"),
    RENO_CORESLOT_FIELDS(coreRetired, "Retired"),
    RENO_CPI_SLOT_FIELDS(0),
    RENO_CPI_SLOT_FIELDS(1),
    RENO_CPI_SLOT_FIELDS(2),
    RENO_CPI_SLOT_FIELDS(3),
};
#undef RENO_CPI_SLOT_FIELDS
#undef RENO_CPI_FIELD
#undef RENO_CORESLOT_FIELDS
#undef RENO_MEMLEVEL_FIELDS
#undef RENO_ELIM_FIELD

static_assert(NumElimKinds == 5,
              "new ElimKind: add its RENO_ELIM_FIELD entry above");
static_assert(NumMemStatLevels == 4,
              "new mem stat slot: extend RENO_MEMLEVEL_FIELDS above");
static_assert(NumCoreStatSlots == 4,
              "new core stat slot: extend RENO_CORESLOT_FIELDS and "
              "the RENO_CPI_SLOT_FIELDS rows above");
static_assert(NumCpiBuckets == 12,
              "new CPI bucket: extend RENO_CPI_SLOT_FIELDS above");
static_assert(std::size(SimResultFields) * sizeof(std::uint64_t) ==
                  sizeof(SimResult),
              "SimResult changed: update SimResultFields");

/** The canonical registry, every counter exactly once. */
inline std::span<const SimStatField>
simResultFields()
{
    return SimResultFields;
}

inline std::uint64_t &
statRef(SimResult &r, const SimStatField &f)
{
    return *reinterpret_cast<std::uint64_t *>(
        reinterpret_cast<char *>(&r) + f.offset);
}

inline std::uint64_t
statValue(const SimResult &r, const SimStatField &f)
{
    return *reinterpret_cast<const std::uint64_t *>(
        reinterpret_cast<const char *>(&r) + f.offset);
}

} // namespace reno
