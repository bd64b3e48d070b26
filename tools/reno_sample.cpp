/**
 * @file
 * reno-sample: the sampled-simulation command-line driver. Estimates
 * whole-program IPC from checkpointed interval samples -- each
 * (workload, config, interval) is an independent campaign job, so
 * intervals parallelize across the worker pool and hit the
 * content-addressed result cache -- and, with --validate, runs the
 * full detailed simulations too and reports the per-workload IPC
 * error (the CI accuracy gate).
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/textfile.hpp"
#include "obs/cpireport.hpp"
#include "obs/session.hpp"
#include "sample/sampler.hpp"
#include "sweep/campaign.hpp"
#include "sweep/selection.hpp"

using namespace reno;

int
main(int argc, char **argv)
{
    bool validate = false;
    double max_error = 0.0;
    std::string cpi_json;
    sweep::SelectionArgs selection;
    sample::SampleOptions options;
    obs::ObsOptions obs_opts;

    FlagTable table;
    sweep::addSelectionFlags(table, &selection);
    table.section("sampling plan");
    table.number("--sample", "N",
                 "measured intervals per program (default 10; on N "
                 "cores, interval boundaries count aggregate retired "
                 "instructions)",
                 &options.plan.intervals, 1);
    table.number("--warmup", "W",
                 "detailed warmup insts per interval (default 2000)",
                 &options.plan.warmupInsts);
    table.number("--measure", "M",
                 "measured insts per interval (default 5000)",
                 &options.plan.measureInsts, 1);
    table.number("--cold", "C",
                 "exactly-measured cold stratum (default: total/10)",
                 &options.plan.coldInsts, 1);
    table.section("validation");
    table.flag("--validate",
               "also run full simulations; report per-workload "
               "sampled-vs-full IPC error",
               &validate);
    table.value("--max-error", "PCT",
                "exit 1 if any |error| exceeds PCT",
                [&max_error](const std::string &v) {
                    char *end = nullptr;
                    max_error = std::strtod(v.c_str(), &end);
                    if (end == v.c_str() || *end != '\0' ||
                        !std::isfinite(max_error) || max_error <= 0.0)
                        fatal("--max-error expects a positive number, "
                              "got '%s'",
                              v.c_str());
                });
    sweep::addCampaignFlags(table, &options.campaign);
    table.section("output");
    table.file("--cpi-json",
               "write extrapolated whole-program CPI stacks (the same "
               "stratified estimator as the IPC estimate)",
               &cpi_json);
    obs::addObsFlags(table, &obs_opts);
    table.parse(argc, argv);
    if (max_error > 0.0 && !validate)
        fatal("--max-error requires --validate");

    const sweep::Selection sel = sweep::resolveSelection(selection);
    const obs::Session obs_session(obs_opts);
    if (!cpi_json.empty() && validate)
        fatal("--cpi-json cannot be combined with --validate");

    if (validate) {
        const sample::ValidationReport report =
            sample::validateSampling(sel.workloads, sel.configs,
                                     options);
        const std::string rendered =
            sample::renderValidation(report, sel.format);
        std::fwrite(rendered.data(), 1, rendered.size(), stdout);
        std::fprintf(stderr,
                     "[sample] max |IPC error| %.2f%%; full %.2fs "
                     "(%zu sims), sampled %.2fs (%zu sims), ",
                     report.maxAbsErrorPct, report.fullSeconds,
                     report.fullStats.simulated,
                     report.sampledSeconds,
                     report.sampledStats.simulated);
        // A side that simulated nothing timed cache lookups only, so
        // the ratio of the two times says nothing about sampling.
        if (report.fullStats.simulated && report.sampledStats.simulated)
            std::fprintf(stderr, "speedup %.1fx\n", report.speedup());
        else
            std::fprintf(stderr, "no speedup measured (a side "
                                 "replayed from the cache)\n");
        if (max_error > 0.0 && report.maxAbsErrorPct > max_error) {
            std::fprintf(stderr,
                         "[sample] FAIL: max |IPC error| %.2f%% "
                         "exceeds the --max-error bound %.2f%%\n",
                         report.maxAbsErrorPct, max_error);
            return 1;
        }
        return 0;
    }

    const sample::SampledCampaign sampled =
        sample::runSampledCampaign(sel.workloads, sel.configs, options);
    const std::string rendered =
        sample::renderSampled(sampled, sel.format);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);

    if (!cpi_json.empty()) {
        std::vector<obs::SampledCpiRow> rows;
        for (const sample::SampledRun &run : sampled.runs) {
            rows.push_back({run.workload->name, run.config,
                            run.numCores, run.est.cpiEst});
        }
        if (!writeTextFile(cpi_json, obs::renderSampledCpiJson(rows)))
            return 1;
    }
    return 0;
}
