/**
 * @file
 * The benchmark's workload table, source regeneration, sampling plan,
 * result comparison helpers and the timed harness wrappers.
 */
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "workloads/randprog.hpp"
#include "workloads/workload_sources.hpp"

namespace perfbench
{

using namespace reno;

const std::vector<WorkloadDef> &
workloadDefs()
{
    // Why these four: see perfbench/README.md. In short, two
    // full-detail single-core loops that use the pipeline differently
    // (compute-bound vs. issue queue full of loads waiting on mem),
    // the sampled path where functional warming dominates, and the
    // N-core System over the MESI bus.
    static const std::vector<WorkloadDef> defs = {
        {"detailed-compute",
         {"synth.plain", "synth.phase", "synth.chase", "synth.mix"},
         {"RENO"},
         false,
         1},
        {"detailed-memory",
         {"mem.stream.1m", "mem.chase.64k"},
         {"RENO"},
         false,
         1},
        {"sampled-1c",
         {"synth.plain", "synth.phase", "synth.chase", "synth.mix",
          "branch.bias", "branch.alt", "branch.loop", "branch.corr",
          "branch.call", "branch.ind"},
         {"BASE", "RENO"},
         true,
         1},
        {"multicore-4c",
         {"multi.prodcons", "multi.lock", "multi.false",
          "multi.false.pad", "multi.stream"},
         {"RENO/4c"},
         false,
         4},
    };
    return defs;
}

namespace
{

/** The synth suite's generator knobs (workloads.cpp synthParams). */
RandProgParams
synthParams(std::uint64_t seed, unsigned phases, unsigned chase)
{
    RandProgParams p;
    p.seed = seed;
    p.iters = 8000;
    p.phases = phases;
    p.phasePeriod = 32;
    p.chaseSteps = chase;
    return p;
}

} // namespace

std::string
regenerateSource(const std::string &program)
{
    using namespace reno::workloads;
    // The parameters mirror the registry; setup compares the result
    // with the registered text, so a drift fails the run.
    if (program == "synth.plain")
        return generateRandomProgram(synthParams(11, 1, 0));
    if (program == "synth.phase")
        return generateRandomProgram(synthParams(12, 4, 0));
    if (program == "synth.chase")
        return generateRandomProgram(synthParams(13, 1, 12));
    if (program == "synth.mix")
        return generateRandomProgram(synthParams(14, 4, 8));
    if (program == "mem.stream.1m")
        return memStreamSource(1024, 3);
    if (program == "mem.chase.64k")
        return memChaseSource(64, 600000);
    if (program == "branch.bias")
        return branchBiasSource(250000);
    if (program == "branch.alt")
        return branchAltSource(200000);
    if (program == "branch.loop")
        return branchLoopSource(25000);
    if (program == "branch.corr")
        return branchCorrSource(150000);
    if (program == "branch.call")
        return branchCallSource(10000, 24);
    if (program == "branch.ind")
        return branchIndSource(120000, 8);
    if (program == "multi.prodcons")
        return multiProdconsSource(64, 60000);
    if (program == "multi.lock")
        return multiLockSource(30000);
    if (program == "multi.false")
        return multiFalseSource(150000, 8);
    if (program == "multi.false.pad")
        return multiFalseSource(150000, 256);
    if (program == "multi.stream")
        return multiStreamSource(32, 6);
    fatal("perfbench: no generator for program '%s'", program.c_str());
}

sample::SampleOptions
sampleOptions(unsigned cores)
{
    sample::SampleOptions opts;
    opts.plan.intervals = 10;
    opts.plan.warmupInsts = 2000;
    opts.plan.measureInsts = 5000;
    // Interval positions count aggregate instructions, so N cores
    // need N times the cold stratum to span the same startup.
    opts.plan.coldInsts = 50000ULL * cores;
    opts.campaign.jobs = 1;
    return opts;
}

double
ipcErrorPct(const sample::SampledRun &run, const SimResult &full)
{
    const auto err = [](double est, double ref) {
        return ref > 0.0 ? std::fabs(est - ref) / ref * 100.0 : 0.0;
    };
    double worst = err(run.est.ipc, full.ipc());
    if (run.numCores > 1) {
        const unsigned slots =
            std::min<unsigned>(run.numCores, NumCoreStatSlots);
        for (unsigned s = 0; s < slots; ++s)
            worst = std::max(worst,
                             err(run.est.coreIpcEst[s], full.coreIpc(s)));
    }
    return worst;
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    for (const SimStatField &f : simResultFields()) {
        if (statValue(a, f) != statValue(b, f))
            return false;
    }
    return true;
}

std::uint64_t
fingerprint(const std::vector<SimResult> &results)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ p[i]) * 1099511628211ULL;
    };
    for (const SimResult &r : results) {
        for (const SimStatField &f : simResultFields()) {
            const std::uint64_t v = statValue(r, f);
            mix(f.name, std::char_traits<char>::length(f.name));
            mix(&v, sizeof(v));
        }
    }
    return h;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

RunOutput
Bench::runFunctional(const Workload &w)
{
    auto &registry = obs::MetricsRegistry::instance();
    obs::Counter &lookups = registry.counter("emu.block_cache.lookups");
    obs::Counter &hits = registry.counter("emu.block_cache.hits");
    const std::uint64_t lookups0 = lookups.value();
    const std::uint64_t hits0 = hits.value();

    Scope span(spans, "emu.runFunctional");
    const auto t0 = HostClock::now();
    RunOutput out = runFunctionalMulti(w, def.cores);
    emu.seconds += secondsSince(t0);
    emu.insts += out.emuInsts;
    blockLookups += lookups.value() - lookups0;
    blockHits += hits.value() - hits0;
    return out;
}

RunOutput
Bench::runDetailed(const Workload &w, const NamedConfig &cfg,
                   double *seconds)
{
    Scope span(spans, cfg.params.sys.numCores > 1 ? "sys.runWorkload"
                                                  : "core.runWorkload");
    const auto t0 = HostClock::now();
    RunOutput out = runWorkload(w, cfg.params);
    const double dt = secondsSince(t0);
    if (seconds != nullptr)
        *seconds = dt;
    detailed.seconds += dt;
    detailed.insts += out.sim.retired;
    detailed.cycles += out.sim.cycles;
    for (unsigned s = 0; s < NumCoreStatSlots; ++s)
        detailed.coreCycles += out.sim.coreCycles[s];
    return out;
}

} // namespace perfbench
