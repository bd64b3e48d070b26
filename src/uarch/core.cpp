#include "uarch/core.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace reno
{

Core::Core(const CoreParams &params, Emulator &emu,
           const MemHierarchy::Attach *attach)
    : params_(params), emu_(emu), renamer_(params.reno, params.numPregs),
      mem_(params.mem, attach), bp_(params.bpred),
      ssets_(params.ssitEntries, params.numStoreSets),
      state_(params_),
      statSet_(attach ? strprintf("core%u", attach->coreId) : "core"),
      stats_(statSet_),
      fetch_(params_, emu_, mem_, bp_, state_),
      rename_(params_, renamer_, ssets_, state_, stats_),
      issue_(params_, mem_, ssets_, renamer_, state_, stats_),
      commit_(params_, renamer_, ssets_, mem_, state_, stats_)
{
    if (params.numPregs < NumLogRegs + 1)
        fatal("numPregs must exceed the number of logical registers");
    // CPI / hotspot accounting is sampled once per core construction
    // (the Tracer idiom): purely observational, never part of
    // CoreParams, so job digests and SimResults are unaffected.
    const auto &acc = obs::CpiAccounting::instance();
    if (acc.stackEnabled())
        cpi_ = std::make_unique<obs::CpiStack>();
    if (acc.hotspotTopN() > 0)
        hot_ = std::make_unique<obs::HotspotProfile>();
    if (cpi_ || hot_)
        commit_.setCpi(cpi_.get(), hot_.get());
    renamer_.initialize(emu.state().regs);
    // An emulator that already ran to completion -- a sampled window
    // whose start lies past this core's exit on a multi-core System
    // -- has nothing left to fetch; freeze instead of spinning an
    // empty pipeline forever.
    state_.finished = emu.done();
}

void
Core::tick()
{
    commit_.tick();
    if (!state_.finished) {
        issue_.tick();
        rename_.tick();
        fetch_.tick();
    }
    ++state_.now;
}

SimResult
Core::run()
{
    return runUntilRetired(~std::uint64_t{0});
}

SimResult
Core::runUntilRetired(std::uint64_t retired_bound)
{
    // Liveness watchdog: the longest legitimate retirement gap is a
    // memory-latency chain, orders of magnitude under this bound. A
    // rename/retire deadlock (e.g. an unreclaimable register pool)
    // should fail loudly, not spin to maxCycles.
    constexpr Cycle RetireGapBound = 100'000;
    std::uint64_t last_retired = stats_.retired;
    Cycle last_progress = state_.now;

    // Periodic counter sampling for traces (--trace-sample). The
    // interval is read once per call: purely observational, never
    // part of CoreParams, so job digests and results are unaffected.
    const std::uint64_t sample_interval =
        obs::Tracer::instance().enabled()
            ? obs::Tracer::instance().cycleSampleInterval()
            : 0;
    Cycle next_sample =
        sample_interval
            ? (state_.now / sample_interval + 1) * sample_interval
            : 0;

    while (!state_.finished && stats_.retired < retired_bound &&
           state_.now < params_.maxCycles) {
        tick();
        if (sample_interval && state_.now >= next_sample) {
            sampleStatsCounter();
            next_sample += sample_interval;
        }
        if (stats_.retired != last_retired) {
            last_retired = stats_.retired;
            last_progress = state_.now;
        } else if (state_.now - last_progress > RetireGapBound) {
            panic("no instruction retired for %llu cycles "
                  "(cycle %llu, %llu retired, rob %zu, free pregs %u): "
                  "pipeline deadlock",
                  static_cast<unsigned long long>(RetireGapBound),
                  static_cast<unsigned long long>(state_.now),
                  static_cast<unsigned long long>(stats_.retired),
                  state_.rob.size(), renamer_.physRegs().numFree());
        }
    }
    if (!state_.finished && stats_.retired < retired_bound)
        warn("simulation hit the cycle limit before program exit");
    return result();
}

void
Core::sampleStatsCounter()
{
    obs::TraceArgs args;
    args.add("cycle", static_cast<std::uint64_t>(state_.now));
    for (const auto &[name, value] : statSet_.dump())
        args.add(name.c_str(), value);
    // The set's name gives each core of a System its own trace lane
    // ("core0.stats", "core1.stats", ...), a single-core run's one
    // core included; only a bare Core outside a System (tests,
    // examples) samples onto "core.stats".
    obs::Tracer::instance().counter(statSet_.name() + ".stats",
                                    args.str());
}

SimResult
Core::result() const
{
    SimResult r;
    r.cycles = state_.now;
    r.retired = stats_.retired;
    for (unsigned k = 0; k < NumElimKinds; ++k)
        r.elim[k] = stats_.retiredElim(k);
    r.retiredLoads = stats_.retiredLoads;
    r.retiredStores = stats_.retiredStores;
    r.retiredBranches = stats_.retiredBranches;
    r.itAccesses = renamer_.it().accesses();
    r.itHits = renamer_.it().hits();
    r.overflowCancels = renamer_.overflowCancels();
    r.groupDepCancels = renamer_.groupDepCancels();
    r.violationSquashes = stats_.violationSquashes;
    r.misintegrationFlushes = stats_.misintegrationFlushes;
    r.bpLookups = bp_.lookups();
    r.bpMispredicts = bp_.mispredicts();
    r.bpDirMispredicts = bp_.dirMispredicts();
    r.bpTargetMispredicts = bp_.targetMispredicts();
    r.bpRasMispredicts = bp_.rasMispredicts();
    r.bpRasOverflows = bp_.rasOverflows();
    r.bpTageProviderHits = bp_.direction().providerHits();
    r.bpTageAltHits = bp_.direction().altHits();
    r.bpPerceptronConfident = bp_.direction().confidentPredicts();
    r.icacheMisses = mem_.icache().misses();
    r.dcacheMisses = mem_.dcache().misses();
    // Per-level slots: I$, D$, L2, then every deeper shared level
    // aggregated into the "l3" slot (see NumMemStatLevels). An
    // attached core reports only its private L1s (levels() stops
    // there); the owning System accounts the shared stack once.
    if (!mem_.attached())
        r.l2Misses = mem_.l2().misses();
    const std::vector<const Cache *> levels = mem_.levels();
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const unsigned slot = static_cast<unsigned>(
            std::min<std::size_t>(i, NumMemStatLevels - 1));
        const Cache &c = *levels[i];
        r.memHits[slot] += c.hits();
        r.memMshrMerges[slot] += c.mshrMerges();
        r.memWritebacks[slot] += c.writebacks();
        r.memPrefetchIssued[slot] += c.prefetchIssued();
        r.memPrefetchUseful[slot] += c.prefetchUseful();
        if (i >= 3)
            r.l3Misses += c.misses();
    }
    // Per-core slot 0: a lone core IS core 0. The System remaps these
    // into each core's slot when it aggregates.
    r.coreCycles[0] = state_.now;
    r.coreRetired[0] = stats_.retired;
    r.stallRob = stats_.stallRob;
    r.stallIq = stats_.stallIq;
    r.stallPregs = stats_.stallPregs;
    r.stallLsq = stats_.stallLsq;
    return r;
}

} // namespace reno
