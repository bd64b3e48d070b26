#include "sys/system.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
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
    : params_(params), shared_(params.mem),
      bus_(params.sys, params.mem.dcache.blockBytes,
           checkedNumCores(params.sys))
{
    const unsigned n = bus_.numCores();
    if (emus.size() != n)
        fatal("system: %u cores need %u emulators (got %zu)", n, n,
              emus.size());

    cores_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        if (!emus[i])
            fatal("system: null emulator for core %u", i);
        cores_.push_back(std::make_unique<Core>(
            params_, *emus[i],
            MemHierarchy::Attach{&shared_, &bus_, i}));
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
System::runUntilRetired(std::uint64_t retired_bound)
{
    // Liveness watchdog on aggregate retirement: the longest
    // legitimate retirement gap is a memory-latency chain, orders of
    // magnitude under this bound, and bus penalties only delay
    // accesses. A rename/retire or coherence deadlock should fail
    // loudly, not spin to maxCycles.
    constexpr Cycle RetireGapBound = 100'000;
    std::uint64_t last_retired = totalRetired();
    Cycle last_progress = now_;

    // Periodic counter sampling for traces (--trace-sample), read
    // once per call: purely observational, never part of CoreParams.
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
        // Each core reports its per-core block in slot 0; move it to
        // the core's own slot (deep cores aggregate into the last
        // one) before the field-wise sum.
        const unsigned slot = static_cast<unsigned>(
            std::min<std::size_t>(i, NumCoreStatSlots - 1));
        if (slot != 0) {
            c.coreCycles[slot] = std::exchange(c.coreCycles[0], 0);
            c.coreRetired[slot] = std::exchange(c.coreRetired[0], 0);
            for (unsigned b = 0; b < NumCpiBuckets; ++b)
                c.cpi[slot][b] = std::exchange(c.cpi[0][b], 0);
        }
        for (const SimStatField &f : simResultFields())
            statRef(agg, f) += statValue(c, f);
    }
    // System time is the interleaved cycle count, not the sum of the
    // cores' clocks.
    agg.cycles = now_;

    // The shared stack, accounted once (the cores report only their
    // private L1s). Stack index 0 is machine level 2 (the L2); deeper
    // levels aggregate into the "l3" slot.
    agg.l2Misses = shared_.level(0).misses();
    for (std::size_t i = 0; i < shared_.numLevels(); ++i) {
        const unsigned slot = static_cast<unsigned>(
            std::min<std::size_t>(i + 2, NumMemStatLevels - 1));
        const Cache &c = shared_.level(i);
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
