#include "sys/system.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace reno
{

namespace
{

/** Validate the core count before any member needs it. */
unsigned
checkedNumCores(const SysParams &sys)
{
    if (sys.numCores < 1 || sys.numCores > SysParams::MaxCores)
        fatal("system: core count must be in [1, %u] (got %u)",
              SysParams::MaxCores, sys.numCores);
    return sys.numCores;
}

} // namespace

System::System(const CoreParams &params,
               const std::vector<Emulator *> &emus)
    : params_(params),
      bus_(params.sys, params.mem.dcache.blockBytes,
           checkedNumCores(params.sys))
{
    const unsigned n = bus_.numCores();
    if (emus.size() != n)
        fatal("system: %u cores need %u emulators (got %zu)", n, n,
              emus.size());

    // The shared stack and memory, assembled exactly as the
    // single-core hierarchy assembles its own (mem/hierarchy.cpp):
    // back to front, write-back modeling propagated, the memory bus
    // moving one block of the deepest level per transfer.
    std::vector<CacheParams> stack;
    stack.push_back(params_.mem.l2);
    for (const CacheParams &extra : params_.mem.extraLevels)
        stack.push_back(extra);
    if (params_.mem.modelWritebacks) {
        for (CacheParams &level : stack)
            level.writebackTraffic = true;
    }
    memory_ = std::make_unique<MainMemory>(params_.mem.memory,
                                           stack.back().blockBytes);
    shared_.resize(stack.size());
    for (std::size_t i = stack.size(); i-- > 0;) {
        MemLevel *next =
            i + 1 < stack.size()
                ? static_cast<MemLevel *>(shared_[i + 1].get())
                : static_cast<MemLevel *>(memory_.get());
        shared_[i] = std::make_unique<Cache>(stack[i], next);
    }
    for (const auto &level : shared_)
        sharedView_.push_back(level.get());

    cores_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        if (!emus[i])
            fatal("system: null emulator for core %u", i);
        MemHierarchy::Attach attach;
        attach.backend = shared_[0].get();
        attach.shared = sharedView_;
        attach.bus = &bus_;
        attach.coreId = i;
        cores_.push_back(
            std::make_unique<Core>(params_, *emus[i], &attach));
    }
}

bool
System::finished() const
{
    return std::all_of(cores_.begin(), cores_.end(),
                       [](const auto &c) { return c->finished(); });
}

std::uint64_t
System::totalRetired() const
{
    std::uint64_t sum = 0;
    for (const auto &core : cores_)
        sum += core->retiredCount();
    return sum;
}

void
System::tick()
{
    for (auto &core : cores_) {
        if (!core->finished())
            core->tick();
    }
    ++now_;
}

SimResult
System::run()
{
    const SimResult r = runUntilRetired(~std::uint64_t{0});
    // A lone core has no coherence traffic to publish.
    if (cores_.size() == 1)
        return r;

    auto &metrics = obs::MetricsRegistry::instance();
    metrics.counter("sys.coh.invalidations").inc(bus_.invalidations());
    metrics.counter("sys.coh.interventions").inc(bus_.interventions());
    metrics.counter("sys.coh.upgradeMisses").inc(bus_.upgradeMisses());
    metrics.counter("sys.coh.writebacks").inc(bus_.writebacks());
    return r;
}

SimResult
System::runUntilRetired(std::uint64_t retired_bound)
{
    // Same liveness watchdog as Core::runUntilRetired, on aggregate
    // retirement: bus penalties only delay accesses, they cannot
    // deadlock, so a system-wide retirement gap is still a bug.
    constexpr Cycle RetireGapBound = 100'000;
    std::uint64_t last_retired = totalRetired();
    Cycle last_progress = now_;

    const std::uint64_t sample_interval =
        obs::Tracer::instance().enabled()
            ? obs::Tracer::instance().cycleSampleInterval()
            : 0;
    Cycle next_sample =
        sample_interval
            ? (now_ / sample_interval + 1) * sample_interval
            : 0;

    while (!finished() && totalRetired() < retired_bound &&
           now_ < params_.maxCycles) {
        tick();
        if (sample_interval && now_ >= next_sample) {
            // One sample per core per interval, each on its own
            // "core<i>.stats" lane.
            for (auto &core : cores_)
                core->sampleStatsCounter();
            next_sample += sample_interval;
        }
        const std::uint64_t retired = totalRetired();
        if (retired != last_retired) {
            last_retired = retired;
            last_progress = now_;
        } else if (now_ - last_progress > RetireGapBound) {
            panic("no core retired an instruction for %llu cycles "
                  "(cycle %llu, %llu retired total): pipeline or "
                  "coherence deadlock",
                  static_cast<unsigned long long>(RetireGapBound),
                  static_cast<unsigned long long>(now_),
                  static_cast<unsigned long long>(last_retired));
        }
    }
    if (!finished() && now_ >= params_.maxCycles)
        warn("simulation hit the cycle limit before every core "
             "exited");
    return result();
}

SimResult
System::result() const
{
    SimResult agg;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        SimResult c = cores_[i]->result();
        // A lone core reports itself in slot 0; remap to this core's
        // slot (deep cores aggregate into the last one) and keep the
        // per-core arrays out of the whole-machine sum.
        const std::uint64_t core_cycles = c.coreCycles[0];
        const std::uint64_t core_retired = c.coreRetired[0];
        c.coreCycles[0] = 0;
        c.coreRetired[0] = 0;
        for (const SimStatField &f : simResultFields())
            statRef(agg, f) += statValue(c, f);
        const unsigned slot = static_cast<unsigned>(
            std::min<std::size_t>(i, NumCoreStatSlots - 1));
        agg.coreCycles[slot] += core_cycles;
        agg.coreRetired[slot] += core_retired;
    }
    // System time is the interleaved cycle count, not the sum of the
    // cores' clocks.
    agg.cycles = now_;

    // The shared stack, accounted once (attached cores report only
    // their private L1s). Stack index 0 is machine level 2 (the L2);
    // deeper levels aggregate into the "l3" slot.
    agg.l2Misses = shared_[0]->misses();
    for (std::size_t i = 0; i < shared_.size(); ++i) {
        const unsigned slot = static_cast<unsigned>(
            std::min<std::size_t>(i + 2, NumMemStatLevels - 1));
        const Cache &c = *shared_[i];
        agg.memHits[slot] += c.hits();
        agg.memMshrMerges[slot] += c.mshrMerges();
        agg.memWritebacks[slot] += c.writebacks();
        agg.memPrefetchIssued[slot] += c.prefetchIssued();
        agg.memPrefetchUseful[slot] += c.prefetchUseful();
        if (i >= 1)
            agg.l3Misses += c.misses();
    }

    agg.cohInvalidations = bus_.invalidations();
    agg.cohInterventions = bus_.interventions();
    agg.cohUpgradeMisses = bus_.upgradeMisses();
    agg.cohWritebacks = bus_.writebacks();
    return agg;
}

} // namespace reno
