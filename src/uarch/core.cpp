#include "uarch/core.hpp"

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace reno
{

Core::Core(const CoreParams &params, Emulator &emu,
           const MemHierarchy::Attach &attach)
    : params_(params), emu_(emu), renamer_(params.reno, params.numPregs),
      mem_(params.mem, &attach), bp_(params.bpred),
      ssets_(params.ssitEntries, params.numStoreSets),
      state_(params_),
      coreId_(attach.coreId),
      fetch_(params_, emu_, mem_, bp_, state_),
      rename_(params_, renamer_, ssets_, state_, counts_),
      issue_(params_, mem_, ssets_, renamer_, state_, counts_),
      commit_(params_, renamer_, ssets_, mem_, state_, counts_)
{
    if (params.numPregs < NumLogRegs + 1)
        fatal("numPregs must exceed the number of logical registers");
    // Hotspot profiling is sampled once per core construction (the
    // Tracer idiom): purely observational, never part of CoreParams,
    // so job digests and SimResults are unaffected.
    if (obs::HotspotProfile::topN() > 0) {
        hot_ = std::make_unique<obs::HotspotProfile>();
        commit_.setHotspots(hot_.get());
    }
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

void
Core::sampleStatsCounter()
{
    const SimResult r = result();
    obs::TraceArgs args;
    args.add("cycle", static_cast<std::uint64_t>(state_.now));
    for (const SimStatField &f : simResultFields())
        args.add(f.name, statValue(r, f));
    obs::Tracer::instance().counter(strprintf("core%u.stats", coreId_),
                                    args.str());
}

SimResult
Core::result() const
{
    SimResult r = counts_;
    r.cycles = state_.now;
    r.itAccesses = renamer_.it().accesses();
    r.itHits = renamer_.it().hits();
    r.overflowCancels = renamer_.overflowCancels();
    r.groupDepCancels = renamer_.groupDepCancels();
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
    // Memory-level slots 0 and 1: the private I$ and D$. The System
    // accounts the shared stack once.
    const Cache *const l1s[] = {&mem_.icache(), &mem_.dcache()};
    for (unsigned slot = 0; slot < 2; ++slot) {
        const Cache &c = *l1s[slot];
        r.memHits[slot] = c.hits();
        r.memMshrMerges[slot] = c.mshrMerges();
        r.memWritebacks[slot] = c.writebacks();
        r.memPrefetchIssued[slot] = c.prefetchIssued();
        r.memPrefetchUseful[slot] = c.prefetchUseful();
    }
    // Per-core slot 0; the System remaps it into this core's slot.
    r.coreCycles[0] = state_.now;
    r.coreRetired[0] = counts_.retired;
    return r;
}

} // namespace reno
