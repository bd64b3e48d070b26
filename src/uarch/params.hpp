/**
 * @file
 * Core configuration, defaulting to the paper's 4-wide machine
 * (section 4.1):
 *
 *   13-stage pipeline (1 bpred, 2 I$, 1 decode, 2 rename, 1 dispatch,
 *   1 schedule, 2 register read, 1 execute, 1 complete, 1 retire),
 *   128-entry ROB, 50-entry issue queue, 48-entry load buffer,
 *   24-entry store buffer, 160 physical registers. The 4-wide
 *   configuration issues up to 3 integer operations, 1 FP, 1 load and
 *   1 store per cycle; the 6-wide one 4, 2, 2 and 1.
 *
 * (The RENO ISA is integer-only, so the FP issue slots are unused;
 * they are kept in the structure for configuration fidelity.)
 */
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "bpred/predictor.hpp"
#include "mem/hierarchy.hpp"
#include "reno/renamer.hpp"

namespace reno
{

/**
 * Multi-core system shape: how many cores share the lower hierarchy,
 * and the latencies the snooping MESI bus charges on top of the
 * cache-timing path. With one core (the default) the coherence bus
 * never fires and the model is the paper's single-core machine.
 */
struct SysParams {
    /** Cores sharing the L2/L3 stack and main memory. 1..MaxCores;
     *  the System constructor fatal()s outside that range. */
    unsigned numCores = 1;
    /** Hard cap: per-core SimResult slots aggregate cores 3+ into the
     *  last slot, and the round-robin interleave is O(numCores) per
     *  cycle, so the model is not meant for manycore scales. */
    static constexpr unsigned MaxCores = 8;

    /** Bus snoop that transfers no dirty data (E->S downgrade,
     *  invalidating clean remote copies). */
    unsigned snoopLatency = 3;
    /** Dirty-line intervention: a remote M line is flushed to the
     *  shared level and forwarded. */
    unsigned interventionLatency = 12;
    /** Ownership upgrade on a write that hits a Shared line. */
    unsigned upgradeLatency = 6;
};

/** Per-class and total issue bandwidth. */
struct IssueWidths {
    unsigned intOps = 3;   //!< integer ALU/mul/div/branch slots
    unsigned loads = 1;
    unsigned stores = 1;
    unsigned fp = 1;       //!< unused by the integer-only ISA
    unsigned total = 6;
};

/** Full machine configuration. */
struct CoreParams {
    unsigned fetchWidth = 4;
    unsigned renameWidth = 4;
    unsigned commitWidth = 4;
    IssueWidths issue;

    unsigned robEntries = 128;
    unsigned iqEntries = 50;
    unsigned lqEntries = 48;
    unsigned sqEntries = 24;
    unsigned numPregs = 160;
    unsigned fetchBufEntries = 16;

    /** Front-end depth: bpred + 2x I$ + decode. */
    unsigned frontDepth = 4;
    /** Rename-to-schedule depth: second rename stage + dispatch +
     *  schedule. */
    unsigned renameDepth = 3;
    /** Wakeup/select scheduling loop: 1 = back-to-back dependent
     *  single-cycle ops; 2 = the pipelined scheduler of Figure 12. */
    unsigned schedLoop = 1;
    /** Register read + execute + redirect cycles between a branch's
     *  completion and fetch resumption. */
    unsigned branchResolveExtra = 3;

    /** Store-set memory dependence predictor (64-entry LFST). */
    unsigned ssitEntries = 4096;
    unsigned numStoreSets = 64;

    BranchPredParams bpred;
    MemHierarchy::Params mem;
    RenoConfig reno;
    SysParams sys;

    /**
     * When true (default), fusing a deferred register-immediate
     * addition to an add-like consumer is free via 3-input carry-save
     * adders; shifts/multiplies/divides and dual-displacement ALU ops
     * pay one cycle (paper section 3.3). When false, *every* fused
     * operation pays one cycle (the paper's 2-cycle-fusion ablation).
     */
    bool freeAddAddFusion = true;

    std::uint64_t maxCycles = 2'000'000'000ULL;

    /** The paper's 4-wide baseline. */
    static CoreParams fourWide() { return CoreParams{}; }

    /** The paper's 6-wide machine. */
    static CoreParams
    sixWide()
    {
        CoreParams p;
        p.fetchWidth = p.renameWidth = p.commitWidth = 6;
        p.issue = IssueWidths{4, 2, 1, 2, 9};
        return p;
    }

    /** The paper's @p width-wide machine (4 or 6); nullopt for any
     *  other width. */
    static std::optional<CoreParams>
    ofWidth(unsigned width)
    {
        if (width == 4)
            return fourWide();
        if (width == 6)
            return sixWide();
        return std::nullopt;
    }

    /** Reduced issue-width configurations of Figure 11 (bottom). */
    static CoreParams
    issueReduced(unsigned int_ops, unsigned total)
    {
        CoreParams p;
        p.issue.intOps = int_ops;
        p.issue.total = total;
        return p;
    }
};

/*
 * The machine description: every simulation-relevant CoreParams field,
 * each named once. visitParams(p, f) calls f(key, field) for every
 * field in a fixed order, with a stable key that f takes as a
 * std::string_view ("robEntries", "icache.size", "extra0.latency",
 * "bpred.tageMaxHist", ...). The field is passed by reference (const
 * when @p p is), with its own type: unsigned, bool, std::uint64_t,
 * PrefetchKind, DirPredKind, and for "mem.extraLevels" the level
 * vector itself (its entries follow as "extra<i>.*"). The job digest
 * (sweep/job.hpp) serializes this list; the warm-state digest
 * (sample/warmup.hpp) hashes its visitMemParams and visitBpredParams
 * parts. A new parameter goes here and nowhere else.
 */

/** A visited field as the integer the digests hash: enums by value,
 *  bools as 0/1, the extra-level vector by its length. */
template <class T>
std::uint64_t
paramValue(const T &v)
{
    if constexpr (std::is_same_v<T, std::vector<CacheParams>>)
        return v.size();
    else
        return static_cast<std::uint64_t>(v);
}

/** Visit one cache level's fields as "<prefix>.<field>". */
template <class Cache, class F>
    requires std::same_as<std::remove_const_t<Cache>, CacheParams>
void
visitCacheParams(std::string_view prefix, Cache &c, F &&f)
{
    std::string key(prefix);
    key += '.';
    const std::size_t stem = key.size();
    const auto field = [&](const char *name, auto &v) {
        key.resize(stem);
        key += name;
        f(key, v);
    };
    field("size", c.sizeBytes);
    field("assoc", c.assoc);
    field("block", c.blockBytes);
    field("latency", c.latency);
    field("mshrs", c.numMshrs);
    field("prefetch", c.prefetch.kind);
    field("prefetchDegree", c.prefetch.degree);
    field("prefetchTable", c.prefetch.tableEntries);
    field("prefetchRegion", c.prefetch.regionBytes);
    field("writebackTraffic", c.writebackTraffic);
}

/** Visit the memory hierarchy's fields (warm-state geometry). */
template <class Mem, class F>
    requires std::same_as<std::remove_const_t<Mem>, MemParams>
void
visitMemParams(Mem &m, F &&f)
{
    visitCacheParams("icache", m.icache, f);
    visitCacheParams("dcache", m.dcache, f);
    visitCacheParams("l2", m.l2, f);
    f("mem.extraLevels", m.extraLevels);
    for (std::size_t i = 0; i < m.extraLevels.size(); ++i)
        visitCacheParams("extra" + std::to_string(i), m.extraLevels[i],
                         f);
    f("mem.writebacks", m.modelWritebacks);
    f("memory.latency", m.memory.accessLatency);
    f("memory.busBytes", m.memory.busBytes);
    f("memory.busDivider", m.memory.busClockDivider);
}

/** Visit the branch predictor's fields (warm-state geometry). */
template <class Bpred, class F>
    requires std::same_as<std::remove_const_t<Bpred>, BranchPredParams>
void
visitBpredParams(Bpred &b, F &&f)
{
    f("bpred.dir", b.dir.kind);
    f("bpred.bimodal", b.dir.bimodalEntries);
    f("bpred.gshare", b.dir.gshareEntries);
    f("bpred.chooser", b.dir.chooserEntries);
    f("bpred.history", b.dir.historyBits);
    f("bpred.tageBase", b.dir.tageBaseEntries);
    f("bpred.tageTables", b.dir.tageTables);
    f("bpred.tageEntries", b.dir.tageEntries);
    f("bpred.tageTag", b.dir.tageTagBits);
    f("bpred.tageMinHist", b.dir.tageMinHist);
    f("bpred.tageMaxHist", b.dir.tageMaxHist);
    f("bpred.perceptron", b.dir.perceptronEntries);
    f("bpred.perceptronHist", b.dir.perceptronHistBits);
    f("bpred.btb", b.btb.entries);
    f("bpred.btbAssoc", b.btb.assoc);
    f("bpred.ras", b.ras.entries);
    f("bpred.itt", b.indirect.enabled);
    f("bpred.ittEntries", b.indirect.entries);
    f("bpred.ittHistory", b.indirect.historyBits);
}

/** Visit every CoreParams field (see above). */
template <class Params, class F>
    requires std::same_as<std::remove_const_t<Params>, CoreParams>
void
visitParams(Params &p, F &&f)
{
    f("fetchWidth", p.fetchWidth);
    f("renameWidth", p.renameWidth);
    f("commitWidth", p.commitWidth);
    f("issue.intOps", p.issue.intOps);
    f("issue.loads", p.issue.loads);
    f("issue.stores", p.issue.stores);
    f("issue.fp", p.issue.fp);
    f("issue.total", p.issue.total);

    f("robEntries", p.robEntries);
    f("iqEntries", p.iqEntries);
    f("lqEntries", p.lqEntries);
    f("sqEntries", p.sqEntries);
    f("numPregs", p.numPregs);
    f("fetchBufEntries", p.fetchBufEntries);

    f("frontDepth", p.frontDepth);
    f("renameDepth", p.renameDepth);
    f("schedLoop", p.schedLoop);
    f("branchResolveExtra", p.branchResolveExtra);

    f("ssitEntries", p.ssitEntries);
    f("numStoreSets", p.numStoreSets);

    visitBpredParams(p.bpred, f);
    visitMemParams(p.mem, f);

    f("reno.me", p.reno.me);
    f("reno.cf", p.reno.cf);
    f("reno.cse", p.reno.cse);
    f("reno.ra", p.reno.ra);
    f("reno.it.entries", p.reno.it.entries);
    f("reno.it.assoc", p.reno.it.assoc);
    f("reno.itLoadsOnly", p.reno.itLoadsOnly);
    f("reno.exactOverflow", p.reno.exactOverflowCheck);

    f("sys.numCores", p.sys.numCores);
    f("sys.snoopLatency", p.sys.snoopLatency);
    f("sys.interventionLatency", p.sys.interventionLatency);
    f("sys.upgradeLatency", p.sys.upgradeLatency);

    f("freeAddAddFusion", p.freeAddAddFusion);
    f("maxCycles", p.maxCycles);
}

} // namespace reno
