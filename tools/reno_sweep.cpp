/**
 * @file
 * reno-sweep: the campaign-engine command-line driver. Runs an ad-hoc
 * cross-product sweep (suites/workloads x named configurations) or one
 * of the repo's named figure campaigns, on all host cores, with the
 * content-addressed result cache, and reports through the pluggable
 * table/JSON/CSV reporters.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/textfile.hpp"
#include "obs/cpireport.hpp"
#include "obs/session.hpp"
#include "sweep/campaign.hpp"
#include "sweep/reporter.hpp"
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
        "analysis:\n"
        "  --cpa                    critical-path analysis per job\n"
        "                           (single-core only)\n"
        "\n"
        "execution:\n"
        "  --jobs N                 worker threads (default: RENO_JOBS"
        " env, else all cores)\n"
        "  --cache-dir DIR          persistent result cache; a warm\n"
        "                           rerun performs zero simulations\n"
        "  --sweep-stats            execution summary on stderr\n"
        "\n"
        "output:\n"
        "  --all-stats              report every named SimResult"
        " counter\n"
        "  --cpi-json FILE          write per-job CPI stacks + the\n"
        "                           campaign aggregate\n"
        "  --cpi-html FILE          write a self-contained HTML report\n"
        "                           (stacked bars per job, hotspot\n"
        "                           tables)\n"
        "\n"
        "observability (off by default; results are byte-identical\n"
        "either way):\n"
        "  --trace-out FILE         record a Chrome trace-event /\n"
        "                           Perfetto JSON of the run (open at\n"
        "                           ui.perfetto.dev)\n"
        "  --trace-sample N         + sample pipeline counters every N\n"
        "                           simulated cycles\n"
        "  --metrics-json FILE      write engine metrics (job latency,\n"
        "                           queue wait, pool utilization,\n"
        "                           cache hit ratio, phase rates)\n"
        "  --progress[=FILE]        stream NDJSON progress heartbeats\n"
        "                           (default sink: stderr)\n"
        "  --profile-hot[=N]        per-PC hotspot profiling, top N\n"
        "                           (default 20)\n"
        "  --pipetrace[=FILE]       retired-instruction pipeline\n"
        "                           diagrams (default sink: stderr)\n");
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool want_cpa = false;
    bool all_stats = false;
    std::string cpi_json;
    std::string cpi_html;

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
        } else if (arg == "--all-stats") {
            all_stats = true;
        } else if (matches("--cpi-json")) {
            cpi_json = value("--cpi-json");
            if (cpi_json.empty())
                fatal("--cpi-json expects a file path");
        } else if (matches("--cpi-html")) {
            cpi_html = value("--cpi-html");
            if (cpi_html.empty())
                fatal("--cpi-html expects a file path");
        } else if (arg == "--cpa") {
            want_cpa = true;
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

    const sweep::Selection sel = sweep::parseSelectionArgs(argc, argv);
    const sweep::CampaignOptions opts =
        sweep::parseCampaignArgs(argc, argv);
    const obs::ObsOptions obs_opts = obs::parseObsArgs(argc, argv);
    const obs::Session obs_session(obs_opts);

    sweep::Campaign campaign;
    for (const Workload *w : sel.workloads) {
        for (const NamedConfig &cfg : sel.configs)
            campaign.add(*w, cfg, "", want_cpa);
    }

    const sweep::CampaignResults results = campaign.run(opts);
    const std::string rendered =
        sweep::renderResults(results, sel.format, all_stats);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);

    if (!cpi_json.empty() || !cpi_html.empty()) {
        // Per-job CPI stacks (registry fields, so cache hits carry
        // them too) + hotspots.
        std::vector<obs::CpiRow> rows;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const sweep::Job &job = results.job(i);
            rows.push_back({job.workload->name, job.config.name,
                            job.config.params.sys.numCores,
                            results.at(i).sim, results.at(i).hot});
        }
        if (!cpi_json.empty() &&
            !writeTextFile(cpi_json, obs::renderCpiJson(rows)))
            return 1;
        if (!cpi_html.empty() &&
            !writeTextFile(cpi_html, obs::renderCpiHtml(rows)))
            return 1;
    }
    return 0;
}
