/**
 * @file
 * perfbench: the repository benchmark. Runs one named workload as a
 * closed loop of simulation jobs, one after another on one thread,
 * checks every job's output, and prints the end-to-end metrics (or,
 * with --trace 1, the per-layer metrics) as the last line of stdout:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * All times are host time; the end-to-end ones are converted to
 * reference seconds with a calibration kernel run between measurements
 * (bench.hpp, Calibrator). The model is not validated against
 * hardware, and full-detail runs start with cold caches.
 *
 * usage: perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *                  [--trace-file PATH]
 *   --workload W   detailed-compute | detailed-memory | sampled-1c |
 *                  multicore-4c
 *   --seed N       added to every program's registered rand-syscall
 *                  seed (default 0 = the registered seeds)
 *   --seconds S    timed-loop length (default 20); the loop finishes
 *                  the job in flight, and runs every job at least once
 *                  (twice with --trace 1)
 *   --trace 1      traced run: spans around every layer entry point,
 *                  written as Chrome trace-event JSON to PATH
 *                  (default perfbench-trace.json)
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "asm/assembler.hpp"
#include "bench.hpp"
#include "common/log.hpp"
#include "obs/phase.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace reno;
using namespace perfbench;

namespace
{

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 20.0;
    bool trace = false;
    std::string traceFile = "perfbench-trace.json";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            args.workload = value();
        else if (arg == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            args.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            args.trace = value() != "0";
        else if (arg == "--trace-file")
            args.traceFile = value();
        else
            fatal("unknown flag %s (try --workload/--seed/--seconds/"
                  "--trace/--trace-file)", arg.c_str());
    }
    if (args.seconds <= 0.0)
        fatal("--seconds must be positive");
    return args;
}

// fatal() exits the process from inside a job. So that it counts as
// one failed operation rather than a lost run, an exit handler prints
// the result line while a job is in flight.
Bench *g_bench = nullptr;
std::string g_job;

void
onExitDuringJob()
{
    if (g_bench == nullptr || g_job.empty())
        return;
    std::printf("FAILED: fatal() during %s\n", g_job.c_str());
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {}}\n",
                static_cast<unsigned long long>(g_bench->attempted + 1),
                static_cast<unsigned long long>(g_bench->failed + 1));
    std::fflush(stdout);
    std::_Exit(0);
}

/** Marks the operation in flight for onExitDuringJob. */
class JobGuard
{
  public:
    explicit JobGuard(std::string label) { g_job = std::move(label); }
    ~JobGuard() { g_job.clear(); }
    JobGuard(const JobGuard &) = delete;
    JobGuard &operator=(const JobGuard &) = delete;
};

// ---------------------------------------------------------------------
// Set-up: program generation, assembly, configs and reference runs.
// ---------------------------------------------------------------------

struct SetupRep {
    double seconds = 0.0;
    double assembleSeconds = 0.0;
    std::vector<NamedConfig> configs;
    std::vector<RunOutput> functional;
    std::vector<RunOutput> reference;
};

SetupRep
setupOnce(Bench &b)
{
    JobGuard guard("set-up");
    SetupRep rep;
    std::vector<std::string> sources;
    std::vector<Program> images;
    {
        Scope all(b.spans, "harness.setup");
        const auto t0 = HostClock::now();
        {
            Scope s(b.spans, "harness.generate");
            for (const Workload &w : b.programs)
                sources.push_back(regenerateSource(w.name));
        }
        const auto t_asm = HostClock::now();
        {
            Scope s(b.spans, "harness.assemble");
            for (const std::string &src : sources)
                images.push_back(assemble(src));
        }
        rep.assembleSeconds = secondsSince(t_asm);
        {
            Scope s(b.spans, "harness.configs");
            for (const std::string &name : b.def.configs) {
                NamedConfig cfg;
                if (!configByName(name, CoreParams::fourWide(), &cfg))
                    fatal("perfbench: unknown config '%s'", name.c_str());
                rep.configs.push_back(std::move(cfg));
            }
        }
        for (const Workload &w : b.programs)
            rep.functional.push_back(b.runFunctional(w));
        if (b.def.sampled) {
            for (const Workload &w : b.programs) {
                for (const NamedConfig &cfg : rep.configs)
                    rep.reference.push_back(b.runDetailed(w, cfg));
            }
        }
        rep.seconds = secondsSince(t0);
    }

    // Checks, outside the timed part: the regenerated programs are the
    // registered ones, and every full-detail reference run reproduces
    // the functional run's output and memory.
    for (std::size_t i = 0; i < b.programs.size(); ++i) {
        const Workload &w = b.programs[i];
        b.check(sources[i] == w.source &&
                    programDigest(images[i]) ==
                        programDigest(assembleWorkload(w)),
                w.name + ": regenerated program differs from the "
                         "registered one");
    }
    const std::size_t nc = rep.configs.size();
    for (std::size_t r = 0; r < rep.reference.size(); ++r) {
        const RunOutput &f = rep.functional[r / nc];
        const RunOutput &d = rep.reference[r];
        b.check(d.output == f.output && d.memDigest == f.memDigest &&
                    d.emuInsts == f.emuInsts,
                b.programs[r / nc].name + "/" + rep.configs[r % nc].name +
                    ": full-detail reference differs from the "
                    "functional run");
    }
    return rep;
}

/** Repeat set-up, with the calibration kernel between repetitions,
 *  and return the median in reference seconds; keeps the first
 *  repetition's references and checks the others reproduce them. */
double
setup(Bench &b, Calibrator &cal, unsigned reps)
{
    std::vector<double> seconds;
    double cal_before = cal.run();
    for (unsigned r = 0; r < reps; ++r) {
        SetupRep rep = setupOnce(b);
        const double cal_after = cal.run();
        seconds.push_back(
            Calibrator::toReference(rep.seconds, cal_before, cal_after));
        cal_before = cal_after;
        b.assembleSeconds.push_back(rep.assembleSeconds);
        if (r == 0) {
            b.configs = std::move(rep.configs);
            b.functional = std::move(rep.functional);
            b.reference = std::move(rep.reference);
            continue;
        }
        bool same = true;
        for (std::size_t i = 0; i < b.functional.size(); ++i) {
            same = same &&
                   rep.functional[i].output == b.functional[i].output &&
                   rep.functional[i].emuInsts == b.functional[i].emuInsts;
        }
        for (std::size_t i = 0; i < b.reference.size(); ++i)
            same = same && sameResult(rep.reference[i].sim,
                                      b.reference[i].sim);
        b.check(same, "set-up repetition did not reproduce the first");
    }
    return median(seconds);
}

/** Instruction counts under the run's seed against the registered
 *  seeds: a claim re-checked on another seed must simulate comparable
 *  work. */
void
checkSeedComparable(Bench &b)
{
    for (std::size_t i = 0; i < b.programs.size(); ++i) {
        const Workload &w = b.programs[i];
        const std::uint64_t seeded = b.functional[i].emuInsts;
        std::uint64_t registered = seeded;
        if (b.seedOffset != 0) {
            JobGuard guard(w.name + " at the registered seed");
            registered =
                runFunctionalMulti(workloadByName(w.name), b.def.cores)
                    .emuInsts;
        }
        const double ratio = double(seeded) / double(registered);
        std::printf("program: %-16s seed %-4llu %llu insts (%.4f x the "
                    "registered seed's)\n",
                    w.name.c_str(), static_cast<unsigned long long>(w.seed),
                    static_cast<unsigned long long>(seeded), ratio);
        b.check(ratio > 0.9 && ratio < 1.1,
                w.name + ": instruction count not comparable with the "
                         "registered seed's");
    }
}

// ---------------------------------------------------------------------
// The timed loop.
// ---------------------------------------------------------------------

/** One job's runs over the rounds in reference seconds, split by
 *  whether spans were being recorded, and in host seconds. */
struct JobTimes {
    std::vector<double> untraced;
    std::vector<double> traced;
    std::vector<double> host;
    std::uint64_t insts = 0;  //!< instructions one run of the job covers
};

struct LoopResult {
    std::vector<JobTimes> jobs;
    /** First-round statistics per (program, config), program-major:
     *  full-detail results, or the summed windows of sampled runs. */
    std::vector<SimResult> first;
    std::vector<std::uint64_t> firstEstCycles;  //!< sampled only
    double maxIpcErrPct = 0.0;                  //!< sampled only
    unsigned rounds = 0;
};

/** Instructions over the summed per-job median times. */
double
minstrPerSec(const std::vector<JobTimes> &jobs,
             std::vector<double> JobTimes::*series)
{
    double seconds = 0.0;
    std::uint64_t insts = 0;
    for (const JobTimes &j : jobs) {
        if ((j.*series).empty())
            return 0.0;
        seconds += median(j.*series);
        insts += j.insts;
    }
    return ratio(double(insts), seconds) / 1e6;
}

/** One full-detail job: run, check against the functional reference
 *  and the first round, and return whether its time counts. */
bool
detailedJob(Bench &b, LoopResult &lr, std::size_t slot, unsigned round,
            double *seconds)
{
    const std::size_t nc = b.configs.size();
    const Workload &w = b.programs[slot / nc];
    const NamedConfig &cfg = b.configs[slot % nc];
    const std::string label = w.name + "/" + cfg.name;
    RunOutput out;
    {
        JobGuard guard(label);
        out = b.runDetailed(w, cfg, seconds);
    }
    const RunOutput &f = b.functional[slot / nc];
    bool ok = out.output == f.output && out.memDigest == f.memDigest &&
              out.emuInsts == f.emuInsts;
    if (round == 0)
        lr.first[slot] = out.sim;
    else
        ok = ok && sameResult(out.sim, lr.first[slot]);
    lr.jobs[slot].insts = out.sim.retired;
    return b.check(ok, strprintf("%s round %u: output, memory digest or "
                                 "statistics differ from the reference",
                                 label.c_str(), round + 1));
}

/** The sampled job: one sampled campaign of every program under every
 *  configuration, each estimate checked against its full-detail
 *  reference and the first round. */
bool
sampledJob(Bench &b, LoopResult &lr, unsigned round, double *seconds)
{
    sample::SampledCampaign sc;
    {
        JobGuard guard(b.def.name + " campaign");
        Scope span(b.spans, "sample.runSampledCampaign");
        const auto t0 = HostClock::now();
        sc = sample::runSampledCampaign(b.programPtrs(), b.configs,
                                        sampleOptions(b.def.cores));
        *seconds = secondsSince(t0);
    }
    bool all_ok = true;
    std::uint64_t insts = 0;
    for (std::size_t slot = 0; slot < sc.runs.size(); ++slot) {
        const sample::SampledRun &run = sc.runs[slot];
        const double err = ipcErrorPct(run, b.reference[slot].sim);
        bool ok = err <= MaxIpcErrPct;
        if (round == 0) {
            lr.first[slot] = run.est.sum;
            lr.firstEstCycles[slot] = run.est.estCycles;
            lr.maxIpcErrPct = std::max(lr.maxIpcErrPct, err);
        } else {
            ok = ok && sameResult(run.est.sum, lr.first[slot]) &&
                 run.est.estCycles == lr.firstEstCycles[slot];
        }
        all_ok &= b.check(
            ok, strprintf("%s/%s round %u: sampled IPC error %.3f%% "
                          "(bound %.1f%%) or estimate differs from the "
                          "first round",
                          run.workload->name.c_str(), run.config.c_str(),
                          round + 1, err, MaxIpcErrPct));
        insts += run.est.totalInsts;
    }
    lr.jobs[0].insts = insts;
    return all_ok;
}

/**
 * Run the workload's jobs round after round until @p seconds have
 * passed, with the calibration kernel between jobs. Every job runs at
 * least @p min_rounds times; the job in flight at the deadline
 * finishes. With @p alternate, odd rounds record spans and even rounds
 * do not, so one run measures the tracing overhead.
 */
LoopResult
timedLoop(Bench &b, Calibrator &cal, double seconds, unsigned min_rounds,
          bool alternate)
{
    const std::size_t nc = b.configs.size();
    const std::size_t num_jobs = b.def.sampled ? 1 : b.programs.size() * nc;
    LoopResult lr;
    lr.jobs.resize(num_jobs);
    lr.first.resize(b.programs.size() * nc);
    lr.firstEstCycles.resize(b.programs.size() * nc);

    const auto start = HostClock::now();
    const auto expired = [&] { return secondsSince(start) >= seconds; };
    double cal_before = cal.run();
    for (unsigned round = 0;; ++round) {
        const bool traced = alternate && round % 2 == 1;
        b.spans.setEnabled(traced);
        for (std::size_t j = 0; j < num_jobs; ++j) {
            if (round >= min_rounds && expired())
                break;
            double dt = 0.0;
            const bool ok = b.def.sampled
                ? sampledJob(b, lr, round, &dt)
                : detailedJob(b, lr, j, round, &dt);
            const double cal_after = cal.run();
            if (ok) {
                JobTimes &t = lr.jobs[j];
                (traced ? t.traced : t.untraced)
                    .push_back(Calibrator::toReference(dt, cal_before,
                                                       cal_after));
                t.host.push_back(dt);
            }
            cal_before = cal_after;
        }
        lr.rounds = round + 1;
        if (lr.rounds >= min_rounds && expired())
            break;
    }
    b.spans.setEnabled(alternate);
    return lr;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "g++ " __VERSION__;
#else
    return "unknown";
#endif
}

void
printResult(const Bench &b, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        b.failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(b.attempted),
        static_cast<unsigned long long>(b.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", m.name.c_str(),
                          std::isfinite(m.value) ? m.value : 0.0,
                          m.unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // Environment guard: time optimized code only, on one thread.
#ifndef NDEBUG
    fatal("perfbench: refusing to time a build with assertions on "
          "(build type %s)", PERFBENCH_BUILD_TYPE);
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        fatal("perfbench: refusing to time a %s build; configure with "
              "-DCMAKE_BUILD_TYPE=Release", PERFBENCH_BUILD_TYPE);
    setenv("RENO_JOBS", "1", 1);

    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs()) {
        if (d.name == args.workload)
            def = &d;
    }
    if (def == nullptr)
        fatal("perfbench: unknown --workload '%s' (detailed-compute, "
              "detailed-memory, sampled-1c, multicore-4c)",
              args.workload.c_str());

    std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d\n",
                def->name.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("env: nproc %u, compiler %s, build %s, 1 worker thread\n",
                std::thread::hardware_concurrency(),
                compilerName().c_str(), PERFBENCH_BUILD_TYPE);
    std::printf("note: host time, end-to-end times in reference seconds "
                "(see calibration); the model is not validated against "
                "hardware; full-detail runs start with cold caches\n");

    Bench b(*def);
    b.seedOffset = args.seed;
    g_bench = &b;
    std::atexit(onExitDuringJob);
    b.spans.setEnabled(args.trace);

    // Registry lookup generates the suites once per process; set-up
    // then repeats the generation it measures.
    for (const std::string &name : def->programs) {
        Workload w = workloadByName(name);
        w.seed += args.seed;
        b.programs.push_back(w);
    }

    // The full-detail references make sampled set-up long; three
    // repetitions still give a median.
    Calibrator cal;
    const double setup_s = setup(b, cal, def->sampled ? 3 : 5);
    checkSeedComparable(b);

    const LoopResult lr =
        timedLoop(b, cal, args.seconds, args.trace ? 2 : 1, args.trace);

    // Sampled-vs-full IPC error. The sampled workload measured it on
    // every round; the others sample their programs once now and
    // compare with the timed full-detail results. The traced run
    // always runs this campaign: the probes reuse its cache.
    double ipc_err = lr.maxIpcErrPct;
    ProbeInputs probe;
    if (!def->sampled || args.trace) {
        JobGuard guard("check campaign");
        if (args.trace) {
            obs::PhaseStats::instance().reset();
            obs::PhaseStats::instance().enable();
        }
        sample::SampleOptions opts = sampleOptions(def->cores);
        opts.campaign.cache = &b.cache;
        {
            Scope span(b.spans, "sample.runSampledCampaign");
            const auto t0 = HostClock::now();
            probe.campaign = sample::runSampledCampaign(
                b.programPtrs(), b.configs, opts);
            probe.campaignSeconds = secondsSince(t0);
        }
        if (args.trace) {
            for (const auto &[phase, totals] :
                 obs::PhaseStats::instance().snapshot()) {
                if (phase == "sample.capture")
                    probe.phaseCaptureSeconds = totals.micros / 1e6;
            }
            obs::PhaseStats::instance().disable();
        }
        for (std::size_t i = 0; i < probe.campaign.runs.size(); ++i) {
            const sample::SampledRun &run = probe.campaign.runs[i];
            const std::string label =
                run.workload->name + "/" + run.config;
            if (def->sampled) {
                b.check(sameResult(run.est.sum, lr.first[i]),
                        label + ": check campaign differs from the "
                                "timed campaign");
                continue;
            }
            const double err = ipcErrorPct(run, lr.first[i]);
            ipc_err = std::max(ipc_err, err);
            b.check(err <= MaxIpcErrPct,
                    strprintf("%s: sampled IPC error %.3f%% exceeds "
                              "%.1f%%", label.c_str(), err,
                              MaxIpcErrPct));
        }
    }

    std::printf("timed: %zu jobs, %u rounds; host seconds per job:\n",
                lr.jobs.size(), lr.rounds);
    for (std::size_t j = 0; j < lr.jobs.size(); ++j) {
        std::vector<double> xs = lr.jobs[j].host;
        std::sort(xs.begin(), xs.end());
        const std::string label = def->sampled
            ? def->name
            : b.programs[j / b.configs.size()].name + "/" +
                  b.configs[j % b.configs.size()].name;
        std::printf("job: %-24s %2zu runs, %6.2f Minstr, median %.4f s, "
                    "min %.4f, max %.4f\n",
                    label.c_str(), xs.size(), lr.jobs[j].insts / 1e6,
                    median(xs), xs.empty() ? 0.0 : xs.front(),
                    xs.empty() ? 0.0 : xs.back());
    }
    const double minstr = minstrPerSec(lr.jobs, &JobTimes::untraced);
    std::printf("host: %.4f Minstr/s in host seconds; calibration kernel "
                "median %.2fx its quiet %.2f s\n",
                minstrPerSec(lr.jobs, &JobTimes::host), cal.slowdown(),
                Calibrator::ReferenceSeconds);
    std::printf("fingerprint: %016llx over %zu SimResults (every "
                "registry field)\n",
                static_cast<unsigned long long>(fingerprint(lr.first)),
                lr.first.size());

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics.push_back({"minstr_s", minstr, "Minstr/s"});
        metrics.push_back({"setup_s", setup_s, "s"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        metrics.push_back({"ipc_err_pct", ipc_err, "%"});
        g_job.clear();
        printResult(b, metrics);
        return 0;
    }

    // Traced run: per-layer metrics.
    metrics.push_back({"emu.minstr_s", b.emu.minstrPerSec(), "Minstr/s"});
    metrics.push_back({"emu.block_hit_rate",
                       ratio(double(b.blockHits), double(b.blockLookups)),
                       "ratio"});
    {
        JobGuard guard("layer probes");
        runLayerProbes(b, probe, metrics);
    }
    metrics.push_back({"core.minstr_s", b.detailed.minstrPerSec(),
                       "Minstr/s"});
    metrics.push_back({"core.ns_per_cycle",
                       ratio(b.detailed.seconds * 1e9,
                             double(b.detailed.cycles)),
                       "ns"});
    metrics.push_back({"sys.ns_per_core_cycle",
                       ratio(b.detailed.seconds * 1e9,
                             double(b.detailed.coreCycles)),
                       "ns"});
    metrics.push_back({"harness.assemble_ms",
                       median(b.assembleSeconds) * 1e3, "ms"});

    // Exact simulated counts of the first round.
    SimResult total;
    for (const SimResult &r : lr.first)
        sample::accumulateResult(total, r);
    const double kinst = double(total.retired) / 1000.0;
    metrics.push_back({"core.ipc", total.ipc(), "inst/cycle"});
    metrics.push_back({"reno.elim_pct", 100.0 * total.elimFraction(), "%"});
    metrics.push_back({"reno.it_accesses", double(total.itAccesses),
                       "count"});
    metrics.push_back({"mem.dcache_mpki",
                       ratio(double(total.dcacheMisses), kinst),
                       "1/kinst"});
    metrics.push_back({"mem.l2_mpki", ratio(double(total.l2Misses), kinst),
                       "1/kinst"});
    metrics.push_back({"bpred.mpki",
                       ratio(double(total.bpMispredicts), kinst),
                       "1/kinst"});
    metrics.push_back({"coh.invalidations",
                       double(total.cohInvalidations), "count"});
    metrics.push_back({"coh.interventions",
                       double(total.cohInterventions), "count"});

    // Tracing overhead: traced rounds against untraced rounds.
    const double traced_minstr = minstrPerSec(lr.jobs, &JobTimes::traced);
    metrics.push_back({"trace.minstr_s", traced_minstr, "Minstr/s"});
    metrics.push_back({"trace.overhead_pct",
                       100.0 * ratio(minstr - traced_minstr, minstr), "%"});
    metrics.push_back({"trace.spans", double(b.spans.spans().size()),
                       "count"});

    const std::map<std::string, double> self = b.spans.selfSecondsByLayer();
    for (const char *layer : {"harness", "emu", "core", "sys", "sample",
                              "warm", "interval", "mem", "sweep"}) {
        const auto it = self.find(layer);
        metrics.push_back({std::string(layer) + ".self_s",
                           it == self.end() ? 0.0 : it->second, "s"});
    }

    if (b.spans.writeChromeTrace(args.traceFile))
        std::printf("trace: %zu spans written to %s\n",
                    b.spans.spans().size(), args.traceFile.c_str());
    else
        b.check(false, "cannot write trace file " + args.traceFile);
    g_job.clear();
    printResult(b, metrics);
    return 0;
}
