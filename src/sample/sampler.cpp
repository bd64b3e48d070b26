#include "sample/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "common/log.hpp"
#include "common/report.hpp"
#include "harness/experiment.hpp"
#include "obs/phase.hpp"
#include "sweep/thread_pool.hpp"

namespace reno::sample
{

namespace
{

/**
 * Configurations grouped by the parameters warm state depends on
 * (mem + bpred). One warming pass per group serves every member; the
 * usual sweeps (BASE / ME / ME+CF / RENO / ...) differ only in RENO
 * knobs and form a single group.
 */
struct WarmGroup {
    std::uint64_t digest = 0;
    const NamedConfig *representative = nullptr;
    std::vector<std::size_t> configIndices;
};

std::vector<WarmGroup>
groupByWarmConfig(const std::vector<NamedConfig> &configs)
{
    std::vector<WarmGroup> groups;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        const std::uint64_t digest =
            warmConfigDigest(configs[ci].params);
        WarmGroup *group = nullptr;
        for (WarmGroup &g : groups) {
            if (g.digest == digest) {
                group = &g;
                break;
            }
        }
        if (!group) {
            groups.push_back({digest, &configs[ci], {}});
            group = &groups.back();
        }
        group->configIndices.push_back(ci);
    }
    return groups;
}

/** Per-workload planning state. Profiles and interval plans are per
 *  core count: an N-core config samples the AGGREGATE instruction
 *  stream, whose length and interval boundaries differ from the
 *  single-core stream's. */
struct WorkloadPrep {
    const Workload *workload = nullptr;
    std::map<unsigned, FuncProfile> profiles;
    std::map<unsigned, std::vector<PlannedInterval>> windows;
};

sweep::Job
intervalJob(const Workload &workload, const NamedConfig &config,
            const IntervalWindow &window, unsigned index)
{
    sweep::Job job;
    job.workload = &workload;
    job.config = config;
    job.tag = strprintf("ivl%u", index);
    job.window = window;
    return job;
}

/** Profile (store-cached) and plan one workload, once per distinct
 *  core count of the warm groups. */
void
prepareWorkload(WorkloadPrep &prep, const std::vector<WarmGroup> &groups,
                const SamplePlan &plan, const CheckpointStore &store)
{
    const Workload &w = *prep.workload;
    // Trace-only wrapper: the leaf phase inside (sim.functional) does
    // the PhaseStats accounting.
    obs::TraceSpan prep_span("sample.prepare:" + w.name, "phase");
    for (const WarmGroup &group : groups) {
        const unsigned cores =
            group.representative->params.sys.numCores;
        if (prep.windows.count(cores))
            continue;
        FuncProfile profile;
        const std::uint64_t pkey = profileKey(w, cores);
        if (!store.lookupProfile(pkey, &profile)) {
            const RunOutput out = runFunctionalMulti(w, cores);
            profile.totalInsts = out.emuInsts;
            profile.memDigest = out.memDigest;
            store.storeProfile(pkey, profile);
        }
        prep.profiles[cores] = profile;
        prep.windows[cores] =
            planIntervals(profile.totalInsts, plan);
    }
}

} // namespace

SampledCampaign
runSampledCampaign(const std::vector<const Workload *> &workloads,
                   const std::vector<NamedConfig> &configs,
                   const SampleOptions &options)
{
    if (workloads.empty() || configs.empty())
        fatal("sampled campaign needs workloads and configurations");
    if (options.plan.intervals == 0 || options.plan.measureInsts == 0)
        fatal("sampled campaign needs a plan with intervals > 0 and "
              "measured insts > 0");
    for (const NamedConfig &cfg : configs) {
        if (cfg.params.sys.numCores < 1 ||
            cfg.params.sys.numCores > SysParams::MaxCores)
            fatal("sampled simulation supports 1..%u cores (config "
                  "'%s' runs %u)", SysParams::MaxCores,
                  cfg.name.c_str(), cfg.params.sys.numCores);
    }

    // The checkpoint store shares the result cache's persistence
    // directory.
    const CheckpointStore store(options.campaign.cacheDir.empty()
                                    ? ""
                                    : options.campaign.cacheDir + "/ckpt");

    const std::vector<WarmGroup> groups = groupByWarmConfig(configs);

    // Map each configuration to its warm group for job construction.
    std::vector<std::size_t> config_group(configs.size(), 0);
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        for (const std::size_t ci : groups[gi].configIndices)
            config_group[ci] = gi;
    }

    // Profiling passes are independent per workload: run them on the
    // pool.
    std::vector<WorkloadPrep> preps(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i)
        preps[i].workload = workloads[i];
    const unsigned workers =
        sweep::resolveJobCount(options.campaign.jobs);
    if (workers <= 1 || preps.size() <= 1) {
        for (WorkloadPrep &prep : preps)
            prepareWorkload(prep, groups, options.plan, store);
    } else {
        sweep::ThreadPool pool(unsigned(
            std::min<std::size_t>(workers, preps.size())));
        for (WorkloadPrep &prep : preps) {
            pool.submit([&prep, &groups, &options, &store] {
                prepareWorkload(prep, groups, options.plan, store);
            });
        }
        pool.waitIdle();
    }

    // The interval jobs of a (workload, warm group) share one
    // checkpoint feed.
    std::vector<std::vector<std::shared_ptr<CheckpointFeed>>> feeds(
        preps.size());
    for (std::size_t wi = 0; wi < preps.size(); ++wi) {
        for (const WarmGroup &group : groups) {
            const CoreParams &rep = group.representative->params;
            feeds[wi].push_back(std::make_shared<CheckpointFeed>(
                *preps[wi].workload, rep,
                preps[wi].windows.at(rep.sys.numCores), store));
        }
    }

    // One job per (workload, configuration, interval); a config's
    // interval plan depends on its core count (aggregate stream). The
    // submission order bounds how many checkpoints are alive: the
    // workloads go in lanes of one per worker, and a lane's jobs are
    // interval-major, then configuration, then workload. So the jobs
    // of one checkpoint run close together, and each of a lane's
    // workers starts a different workload's warming pass.
    // job_index[workload][config] lists the jobs in interval order.
    std::vector<std::vector<std::vector<std::size_t>>> job_index(
        preps.size(),
        std::vector<std::vector<std::size_t>>(configs.size()));
    sweep::Campaign campaign;
    for (std::size_t lane = 0; lane < preps.size(); lane += workers) {
        const std::size_t lane_end =
            std::min<std::size_t>(preps.size(), lane + workers);
        std::size_t intervals = 0;
        for (std::size_t wi = lane; wi < lane_end; ++wi) {
            for (const auto &[cores, windows] : preps[wi].windows)
                intervals = std::max(intervals, windows.size());
        }
        for (std::size_t i = 0; i < intervals; ++i) {
            for (std::size_t ci = 0; ci < configs.size(); ++ci) {
                for (std::size_t wi = lane; wi < lane_end; ++wi) {
                    const std::vector<PlannedInterval> &windows =
                        preps[wi].windows.at(
                            configs[ci].params.sys.numCores);
                    if (i >= windows.size())
                        continue;
                    sweep::Job job = intervalJob(
                        *preps[wi].workload, configs[ci],
                        windows[i].window, static_cast<unsigned>(i));
                    job.checkpoints = feeds[wi][config_group[ci]];
                    job_index[wi][ci].push_back(
                        campaign.add(std::move(job)));
                }
            }
        }
    }

    const sweep::CampaignResults results = campaign.run(options.campaign);

    SampledCampaign out;
    out.stats = results.stats();
    for (std::size_t wi = 0; wi < preps.size(); ++wi) {
        const WorkloadPrep &prep = preps[wi];
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
            const unsigned cores = configs[ci].params.sys.numCores;
            std::vector<SimResult> windows;
            for (const std::size_t job : job_index[wi][ci])
                windows.push_back(results.at(job).sim);
            SampledRun run;
            run.workload = prep.workload;
            run.config = configs[ci].name;
            run.numCores = cores;
            run.est = aggregateIntervals(
                prep.profiles.at(cores).totalInsts,
                prep.windows.at(cores), windows);
            out.runs.push_back(std::move(run));
        }
    }
    return out;
}

ValidationReport
validateSampling(const std::vector<const Workload *> &workloads,
                 const std::vector<NamedConfig> &configs,
                 const SampleOptions &options)
{
    using clock = std::chrono::steady_clock;

    sweep::Campaign full;
    for (const Workload *w : workloads) {
        for (const NamedConfig &cfg : configs)
            full.add(*w, cfg);
    }
    const auto t0 = clock::now();
    const sweep::CampaignResults full_results =
        full.run(options.campaign);
    const auto t1 = clock::now();
    const SampledCampaign sampled =
        runSampledCampaign(workloads, configs, options);
    const auto t2 = clock::now();

    ValidationReport report;
    report.fullSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    report.sampledSeconds =
        std::chrono::duration<double>(t2 - t1).count();
    report.fullStats = full_results.stats();
    report.sampledStats = sampled.stats;

    std::size_t cursor = 0;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
            const SampledRun &run = sampled.runs[cursor];
            const SimResult &full_sim =
                full_results.at(cursor).sim;
            ++cursor;

            ValidationRow row;
            row.workload = run.workload;
            row.config = run.config;
            row.numCores = run.numCores;
            row.totalInsts = run.est.totalInsts;
            row.sampledInsts = run.est.sum.retired;
            row.fullIpc = full_sim.ipc();
            row.sampledIpc = run.est.ipc;
            row.ipcCi95 = run.est.ipcCi95;
            row.errorPct =
                row.fullIpc > 0.0
                    ? (row.sampledIpc - row.fullIpc) / row.fullIpc *
                          100.0
                    : 0.0;
            report.maxAbsErrorPct = std::max(
                report.maxAbsErrorPct, std::fabs(row.errorPct));
            if (run.numCores > 1) {
                const unsigned slots = std::min<unsigned>(
                    run.numCores, NumCoreStatSlots);
                for (unsigned s = 0; s < slots; ++s) {
                    const double full_core = full_sim.coreIpc(s);
                    const double err =
                        full_core > 0.0
                            ? (run.est.coreIpcEst[s] - full_core) /
                                  full_core * 100.0
                            : 0.0;
                    row.coreErrPct.push_back(err);
                    report.maxAbsErrorPct = std::max(
                        report.maxAbsErrorPct, std::fabs(err));
                }
            }
            report.rows.push_back(std::move(row));
        }
    }
    return report;
}

std::string
renderSampled(const SampledCampaign &campaign,
              sweep::ReportFormat format)
{
    // Per-core columns appear only when some run is multi-core, and
    // then uniformly on every record: renderCsv requires a rectangular
    // field set, so single-core rows pad the extra slots with zero.
    unsigned core_slots = 0;
    for (const SampledRun &run : campaign.runs) {
        if (run.numCores > 1)
            core_slots = std::max(
                core_slots, std::min<unsigned>(run.numCores,
                                               NumCoreStatSlots));
    }

    std::vector<ReportRecord> records;
    records.reserve(campaign.runs.size());
    for (const SampledRun &run : campaign.runs) {
        ReportRecord rec;
        addField(rec, "workload", run.workload->name);
        addField(rec, "suite", run.workload->suite);
        addField(rec, "config", run.config);
        if (core_slots > 0)
            addField(rec, "cores", std::uint64_t{run.numCores});
        addField(rec, "total_insts", run.est.totalInsts);
        addField(rec, "intervals",
                 std::uint64_t{run.est.intervals});
        addField(rec, "measured_intervals",
                 std::uint64_t{run.est.measuredIntervals});
        addField(rec, "sampled_insts", run.est.sum.retired);
        addField(rec, "ipc_est", run.est.ipc, 4);
        addField(rec, "ipc_ci95", run.est.ipcCi95, 4);
        for (unsigned s = 0; s < core_slots; ++s) {
            addField(rec, strprintf("ipc_est_c%u", s),
                     run.numCores > 1 ? run.est.coreIpcEst[s] : 0.0,
                     4);
        }
        addField(rec, "est_cycles", run.est.estCycles);
        addField(rec, "elim_total_pct",
                 run.est.sum.elimFraction() * 100, 2);
        records.push_back(std::move(rec));
    }
    return sweep::renderRecords(records, format);
}

std::string
renderValidation(const ValidationReport &report,
                 sweep::ReportFormat format)
{
    // Same rectangular-field rule as renderSampled: per-core error
    // columns appear only when some row is multi-core, padded with
    // zero on single-core rows.
    std::size_t core_slots = 0;
    for (const ValidationRow &row : report.rows)
        core_slots = std::max(core_slots, row.coreErrPct.size());

    std::vector<ReportRecord> records;
    records.reserve(report.rows.size());
    for (const ValidationRow &row : report.rows) {
        ReportRecord rec;
        addField(rec, "workload", row.workload->name);
        addField(rec, "suite", row.workload->suite);
        addField(rec, "config", row.config);
        if (core_slots > 0)
            addField(rec, "cores", std::uint64_t{row.numCores});
        addField(rec, "total_insts", row.totalInsts);
        addField(rec, "sampled_insts", row.sampledInsts);
        addField(rec, "ipc_full", row.fullIpc, 4);
        addField(rec, "ipc_sampled", row.sampledIpc, 4);
        addField(rec, "ipc_err_pct", row.errorPct, 2);
        for (std::size_t s = 0; s < core_slots; ++s) {
            addField(rec, strprintf("ipc_err_c%zu", s),
                     s < row.coreErrPct.size() ? row.coreErrPct[s]
                                               : 0.0,
                     2);
        }
        addField(rec, "ipc_ci95", row.ipcCi95, 4);
        records.push_back(std::move(rec));
    }
    return sweep::renderRecords(records, format);
}

} // namespace reno::sample
