/**
 * @file
 * Layer probes of the traced run. Each probe calls a layer's public
 * entry points directly, so the time inside runSampledCampaign splits
 * into profile, warming, checkpoint, interval and aggregation spans
 * without instrumenting the library.
 */
#include <memory>

#include "bench.hpp"
#include "common/log.hpp"
#include "mem/hierarchy.hpp"
#include "sample/interval.hpp"
#include "sample/warmup.hpp"

namespace perfbench
{

using namespace reno;

namespace
{

/** Per-job cost of rerunning the check campaign against its warm
 *  in-memory result cache (microseconds). The rerun still profiles
 *  each program, since its checkpoint store is per call. */
double
sweepRerunMicrosPerJob(Bench &b, const ProbeInputs &in)
{
    sample::SampleOptions opts = sampleOptions(b.def.cores);
    opts.campaign.cache = &b.cache;
    sample::SampledCampaign again;
    double seconds = 0.0;
    {
        Scope span(b.spans, "sweep.rerun");
        const auto t0 = HostClock::now();
        again = sample::runSampledCampaign(b.programPtrs(), b.configs,
                                           opts);
        seconds = secondsSince(t0);
    }
    bool same = again.runs.size() == in.campaign.runs.size();
    for (std::size_t i = 0; same && i < again.runs.size(); ++i)
        same = sameResult(again.runs[i].est.sum,
                          in.campaign.runs[i].est.sum);
    b.check(same && again.stats.simulated == 0,
            "rerun against the warm result cache simulated again or "
            "changed an estimate");
    return ratio(seconds * 1e6, double(again.stats.jobs));
}

struct Decomposed {
    double totalSeconds = 0.0;
    double warmSeconds = 0.0;
    std::uint64_t warmInsts = 0;
    double intervalSeconds = 0.0;
    std::uint64_t intervalInsts = 0;  //!< detailed warmup + measured
    std::uint64_t windows = 0;
};

/** Warm from the program start to every window start, snapshotting a
 *  checkpoint at each, exactly as the sampler's capture pass does. */
std::vector<sample::SampleCheckpoint>
capture(Bench &b, const Workload &w,
        const std::vector<sample::PlannedInterval> &plan, Decomposed &d)
{
    const CoreParams &rep = b.configs.front().params;
    const Program &prog = assembleWorkload(w);
    const unsigned cores = b.def.cores;
    std::vector<sample::SampleCheckpoint> ckpts(plan.size());

    std::vector<std::unique_ptr<Emulator>> emus;
    std::vector<Emulator *> emu_ptrs;
    for (unsigned c = 0; c < cores; ++c) {
        Emulator::Options opts;
        opts.randSeed = w.seed + c;
        opts.coreId = c;
        emus.push_back(std::make_unique<Emulator>(prog, opts));
        emu_ptrs.push_back(emus.back().get());
    }
    const auto executed = [&] {
        std::uint64_t n = 0;
        for (const auto &emu : emus)
            n += emu->instCount();
        return n;
    };

    if (cores == 1) {
        sample::WarmState warm(rep.mem, rep.bpred);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            {
                Scope span(b.spans, "warm.warmStep");
                const std::uint64_t before = executed();
                const auto t0 = HostClock::now();
                sample::warmStep(*emus[0], warm,
                                 plan[i].window.startInst);
                d.warmSeconds += secondsSince(t0);
                d.warmInsts += executed() - before;
            }
            Scope span(b.spans, "sample.checkpoint");
            ckpts[i].emu = std::make_shared<const EmuCheckpoint>(
                emus[0]->checkpoint());
            ckpts[i].warm = std::make_shared<const sample::WarmState>(warm);
        }
        return ckpts;
    }

    sample::SysWarmState warm(rep.mem, rep.bpred, cores);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        {
            Scope span(b.spans, "warm.warmStepMulti");
            const std::uint64_t before = executed();
            const auto t0 = HostClock::now();
            sample::warmStepMulti(emu_ptrs, warm,
                                  plan[i].window.startInst);
            d.warmSeconds += secondsSince(t0);
            d.warmInsts += executed() - before;
        }
        Scope span(b.spans, "sample.checkpoint");
        ckpts[i].emu =
            std::make_shared<const EmuCheckpoint>(emus[0]->checkpoint());
        for (unsigned c = 1; c < cores; ++c)
            ckpts[i].extraEmus.push_back(
                std::make_shared<const EmuCheckpoint>(
                    emus[c]->checkpoint()));
        ckpts[i].sysWarm =
            std::make_shared<const sample::SysWarmState>(warm);
    }
    return ckpts;
}

/**
 * The check campaign rebuilt from its public pieces, one program at a
 * time: functional profile, interval plan, warming with checkpoint
 * capture, every interval under every configuration, and the
 * stratified aggregate, which must reproduce the campaign's estimate.
 */
Decomposed
decomposedCampaign(Bench &b, const ProbeInputs &in)
{
    const sample::SamplePlan plan_opts = sampleOptions(b.def.cores).plan;
    const std::size_t nc = b.configs.size();
    Decomposed d;
    for (std::size_t p = 0; p < b.programs.size(); ++p) {
        const Workload &w = b.programs[p];
        Scope top(b.spans, "sample.decomposed");
        const auto t0 = HostClock::now();

        const std::uint64_t total = b.runFunctional(w).emuInsts;
        std::vector<sample::PlannedInterval> plan;
        {
            Scope span(b.spans, "sample.plan");
            plan = sample::planIntervals(total, plan_opts);
        }
        const std::vector<sample::SampleCheckpoint> ckpts =
            capture(b, w, plan, d);

        for (std::size_t c = 0; c < nc; ++c) {
            const NamedConfig &cfg = b.configs[c];
            std::vector<SimResult> windows;
            for (std::size_t i = 0; i < plan.size(); ++i) {
                Scope span(b.spans, "interval.runIntervalDetailed");
                const auto ti = HostClock::now();
                windows.push_back(sample::runIntervalDetailed(
                    w, cfg.params, plan[i].window, &ckpts[i]));
                d.intervalSeconds += secondsSince(ti);
                d.intervalInsts +=
                    plan[i].window.warmupInsts + windows.back().retired;
                ++d.windows;
            }
            sample::SampledEstimate est;
            {
                Scope span(b.spans, "sample.aggregate");
                est = sample::aggregateIntervals(total, plan, windows);
            }
            const sample::SampledEstimate &ref =
                in.campaign.runs[p * nc + c].est;
            b.check(sameResult(est.sum, ref.sum) &&
                        est.estCycles == ref.estCycles &&
                        est.ipc == ref.ipc,
                    w.name + "/" + cfg.name +
                        ": decomposed campaign differs from "
                        "runSampledCampaign");
        }
        d.totalSeconds += secondsSince(t0);
    }
    return d;
}

/** Data accesses of one program, in program order. */
struct Access {
    Addr addr;
    bool write;
};

/**
 * Host nanoseconds per MemHierarchy::dataAccess, replaying the data
 * stream of mem.chase.64k at cycle 0 into a fresh hierarchy, as
 * warming drives it. Median of five replays.
 */
double
memAccessNs(Bench &b)
{
    Workload w = workloadByName("mem.chase.64k");
    w.seed += b.seedOffset;
    std::vector<Access> stream;
    {
        Scope span(b.spans, "emu.captureAccesses");
        Emulator::Options opts;
        opts.randSeed = w.seed;
        Emulator emu(assembleWorkload(w), opts);
        while (!emu.done()) {
            const ExecRecord rec = emu.step();
            const InstClass cls = rec.inst.info().cls;
            if (cls == InstClass::Load || cls == InstClass::Store)
                stream.push_back({rec.effAddr, cls == InstClass::Store});
        }
    }
    if (!b.check(!stream.empty(), "mem.chase.64k made no data access"))
        return 0.0;

    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
        MemHierarchy mem(b.configs.front().params.mem);
        Scope span(b.spans, "mem.dataAccess");
        const auto t0 = HostClock::now();
        for (const Access &a : stream)
            mem.dataAccess(a.addr, 0, a.write);
        ns.push_back(secondsSince(t0) * 1e9 / double(stream.size()));
    }
    return median(ns);
}

} // namespace

void
runLayerProbes(Bench &b, const ProbeInputs &in, std::vector<Metric> &out)
{
    const double hit_us = sweepRerunMicrosPerJob(b, in);
    const Decomposed d = decomposedCampaign(b, in);
    const double access_ns = memAccessNs(b);

    out.push_back({"warm.minstr_s",
                   ratio(double(d.warmInsts), d.warmSeconds) / 1e6,
                   "Minstr/s"});
    out.push_back({"warm.share", ratio(d.warmSeconds, d.totalSeconds),
                   "ratio"});
    out.push_back({"warm.share_base_s", d.totalSeconds, "s"});
    out.push_back({"warm.share_phasestats",
                   ratio(in.phaseCaptureSeconds, in.campaignSeconds),
                   "ratio"});
    out.push_back({"interval.minstr_s",
                   ratio(double(d.intervalInsts), d.intervalSeconds) /
                       1e6,
                   "Minstr/s"});
    out.push_back({"interval.windows", double(d.windows), "count"});
    out.push_back({"mem.access_ns", access_ns, "ns"});
    out.push_back({"sweep.hit_us", hit_us, "us"});
}

} // namespace perfbench
