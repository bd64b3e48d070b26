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

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/textfile.hpp"
#include "obs/cpireport.hpp"
#include "obs/session.hpp"
#include "sample/sampler.hpp"
#include "sweep/campaign.hpp"
#include "sweep/selection.hpp"

using namespace reno;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::printf("usage: %s [options]\n\n%s\n", argv0,
                sweep::selectionUsage().c_str());
    std::printf(
        "sampling plan (on N cores, interval boundaries are aggregate\n"
        "retired instructions):\n"
        "  --sample N               measured intervals per program"
        " (default 10)\n"
        "  --warmup W               detailed warmup insts per interval"
        " (default 2000)\n"
        "  --measure M              measured insts per interval"
        " (default 5000)\n"
        "  --cold C                 exactly-measured cold stratum"
        " (default: total/10)\n"
        "\n"
        "validation:\n"
        "  --validate               also run full simulations; report\n"
        "                           per-workload sampled-vs-full IPC"
        " error\n"
        "  --max-error PCT          exit 1 if any |error| exceeds PCT\n"
        "\n"
        "execution:\n"
        "  --jobs N                 worker threads (default: RENO_JOBS"
        " env, else all cores)\n"
        "  --cache-dir DIR          persistent result cache; interval\n"
        "                           checkpoints persist under"
        " DIR/ckpt\n"
        "  --sweep-stats            execution summary on stderr\n"
        "\n"
        "output:\n"
        "  --cpi-json FILE          write extrapolated whole-program\n"
        "                           CPI stacks (the same stratified\n"
        "                           estimator as the IPC estimate)\n"
        "\n"
        "observability (off by default; results are byte-identical\n"
        "either way):\n"
        "  --trace-out FILE         record a Chrome trace-event /\n"
        "                           Perfetto JSON of the run\n"
        "  --trace-sample N         + sample pipeline counters every N\n"
        "                           simulated cycles\n"
        "  --metrics-json FILE      write engine metrics JSON, with\n"
        "                           per-phase seconds and Minstr/s\n"
        "                           (fast-forward, warming, detailed)\n"
        "                           and the emulator block-cache\n"
        "                           counters\n"
        "  --progress[=FILE]        stream NDJSON progress heartbeats\n"
        "                           (default sink: stderr)\n");
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool validate = false;
    double max_error = 0.0;
    sample::SamplePlan plan;
    std::string cpi_json;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(prefix.size());
            if (i + 1 >= argc)
                fatal("%s expects a value", flag);
            return argv[++i];
        };
        auto matches = [&](const char *flag) {
            return arg == flag ||
                   arg.rfind(std::string(flag) + "=", 0) == 0;
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else if (matches("--sample")) {
            plan.intervals =
                parseUnsignedFlag("--sample", value("--sample"), 1);
        } else if (matches("--warmup")) {
            plan.warmupInsts =
                parseUnsignedFlag("--warmup", value("--warmup"));
        } else if (matches("--measure")) {
            plan.measureInsts =
                parseUnsignedFlag("--measure", value("--measure"), 1);
        } else if (matches("--cold")) {
            plan.coldInsts = parseUnsignedFlag("--cold", value("--cold"), 1);
        } else if (arg == "--validate") {
            validate = true;
        } else if (matches("--max-error")) {
            const std::string v = value("--max-error");
            char *end = nullptr;
            max_error = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' ||
                !std::isfinite(max_error) || max_error <= 0.0)
                fatal("--max-error expects a positive number, got "
                      "'%s'",
                      v.c_str());
        } else if (matches("--cpi-json")) {
            cpi_json = value("--cpi-json");
            if (cpi_json.empty())
                fatal("--cpi-json expects a file path");
        } else if (bool takes_value;
                   sweep::isSelectionFlag(arg, &takes_value) ||
                   sweep::isCampaignFlag(arg, &takes_value) ||
                   obs::isObsFlag(arg, &takes_value)) {
            // Shared flags; parsed by parseSelectionArgs,
            // parseCampaignArgs and parseObsArgs below.
            if (takes_value)
                ++i;
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }
    if (max_error > 0.0 && !validate)
        fatal("--max-error requires --validate");

    const sweep::Selection sel = sweep::parseSelectionArgs(argc, argv);
    sample::SampleOptions options;
    options.plan = plan;
    options.campaign = sweep::parseCampaignArgs(argc, argv);
    const obs::ObsOptions obs_opts = obs::parseObsArgs(argc, argv);
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
