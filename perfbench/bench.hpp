/**
 * @file
 * Shared state of one benchmark run: the workload definition, the
 * programs with the run's seed applied, the reference results that
 * every timed job is checked against, the operation counters, and the
 * timed wrappers around the harness entry points that feed the
 * per-layer metrics of the traced run.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "sample/sampler.hpp"
#include "spans.hpp"
#include "sweep/result_cache.hpp"

namespace perfbench
{

using HostClock = std::chrono::steady_clock;

inline double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/** @p num / @p den, or 0 when @p den is not positive. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** A named benchmark workload: a closed loop over these programs and
 *  configurations, run one job after another. */
struct WorkloadDef {
    std::string name;
    std::vector<std::string> programs;  //!< registry workload names
    std::vector<std::string> configs;   //!< configByName() names
    bool sampled = false;  //!< timed jobs are sampled campaigns
    unsigned cores = 1;
};

/** The four workloads, in BENCHMARK.json order. */
const std::vector<WorkloadDef> &workloadDefs();

/** Regenerate @p program's kernel text through the suite's public
 *  generator (the step the registry performs once per process). */
std::string regenerateSource(const std::string &program);

/** The sampling plan of every sampled campaign the benchmark runs:
 *  10 intervals, 2000 warmup, 5000 measured, and a 50000-instruction
 *  cold stratum per core, on one worker thread. */
reno::sample::SampleOptions sampleOptions(unsigned cores);

/** Largest sampled-vs-full IPC error (%) of one estimate, per-core
 *  slots included on a multi-core configuration. */
double ipcErrorPct(const reno::sample::SampledRun &run,
                   const reno::SimResult &full);

/** True when every SimResult registry field matches. */
bool sameResult(const reno::SimResult &a, const reno::SimResult &b);

/** FNV-1a over every registry field (name and value) of @p results. */
std::uint64_t fingerprint(const std::vector<reno::SimResult> &results);

/** The sampled-vs-full error bound of the correctness gate (%), the
 *  bound CI applies to the sampled path. */
inline constexpr double MaxIpcErrPct = 5.0;

/**
 * Host-speed calibration. The host is shared, and other tenants slow
 * the same job by up to 2x for minutes at a time. The benchmark runs a
 * fixed calibration kernel between measurements and reports each
 * measurement in reference seconds: host seconds times
 * ReferenceSeconds over the mean of the kernel times just before and
 * just after it.
 */
class Calibrator
{
  public:
    Calibrator();

    /** Run the kernel once and record its host seconds. */
    double run();

    /** Median recorded kernel time over ReferenceSeconds. */
    double slowdown() const;

    /** The kernel's time on this host when it is quiet. */
    static constexpr double ReferenceSeconds = 0.1;

    static double
    toReference(double host_seconds, double cal_before, double cal_after)
    {
        return host_seconds * ReferenceSeconds /
               (0.5 * (cal_before + cal_after));
    }

  private:
    struct Insn {
        std::uint8_t op = 0, a = 0, b = 0, c = 0;
        std::int32_t imm = 0;
    };

    std::vector<std::uint32_t> ring_;
    std::vector<std::uint64_t> memory_;
    std::vector<Insn> program_;
    std::vector<double> samples_;
    std::uint64_t sink_ = 0;  //!< keeps the kernel's result live
};

/** Host time and simulated work summed over calls of one kind. */
struct CallTotals {
    double seconds = 0.0;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;      //!< simulated (system) cycles
    std::uint64_t coreCycles = 0;  //!< summed per-core cycles

    double
    minstrPerSec() const
    {
        return ratio(double(insts), seconds) / 1e6;
    }
};

/** One run of one workload. */
struct Bench {
    explicit Bench(const WorkloadDef &def_) : def(def_) {}

    const WorkloadDef &def;
    /** Added to every registered seed (0 = the registered seeds). */
    std::uint64_t seedOffset = 0;
    std::vector<reno::Workload> programs;  //!< seeded registry copies
    std::vector<reno::NamedConfig> configs;
    /** Functional reference per program (all cores of the workload). */
    std::vector<reno::RunOutput> functional;
    /** Full-detail reference per (program, config), program-major;
     *  sampled workloads only. */
    std::vector<reno::RunOutput> reference;

    SpanRecorder spans;
    reno::sweep::ResultCache cache;  //!< shared by the traced probes

    /** runFunctional/runFunctionalMulti calls, with the decoded-block
     *  cache lookups and hits they made. */
    CallTotals emu;
    std::uint64_t blockLookups = 0;
    std::uint64_t blockHits = 0;
    /** runWorkload calls (full detail, any core count). */
    CallTotals detailed;
    /** Per setup repetition: seconds spent assembling. */
    std::vector<double> assembleSeconds;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one checked operation; false ones are failures. */
    bool
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("FAILED: %s\n", what.c_str());
        }
        return ok;
    }

    std::vector<const reno::Workload *>
    programPtrs() const
    {
        std::vector<const reno::Workload *> out;
        for (const reno::Workload &w : programs)
            out.push_back(&w);
        return out;
    }

    /** runFunctionalMulti over the workload's core count, timed. */
    reno::RunOutput runFunctional(const reno::Workload &w);
    /** runWorkload, timed; @p seconds receives the call's host time. */
    reno::RunOutput runDetailed(const reno::Workload &w,
                                const reno::NamedConfig &cfg,
                                double *seconds = nullptr);
};

/** One named metric of the result line. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Inputs of the traced run's layer probes gathered by the main run. */
struct ProbeInputs {
    /** The check campaign over every program and configuration. */
    reno::sample::SampledCampaign campaign;
    double campaignSeconds = 0.0;
    /** PhaseStats "sample.capture" seconds inside that campaign. */
    double phaseCaptureSeconds = 0.0;
};

/** Trace-mode probes: sweep rerun against a warm cache, the sampled
 *  campaign decomposed into its public pieces, and the data-access
 *  replay through the cache hierarchy. Appends per-layer metrics. */
void runLayerProbes(Bench &b, const ProbeInputs &in,
                    std::vector<Metric> &out);

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

} // namespace perfbench
