/**
 * @file
 * reno-sweep: the campaign-engine command-line driver. Runs an ad-hoc
 * cross-product sweep (suites/workloads x named configurations) or one
 * of the repo's named figure campaigns, on all host cores, with the
 * content-addressed result cache, and reports through the pluggable
 * table/JSON/CSV reporters.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/textfile.hpp"
#include "obs/cpireport.hpp"
#include "obs/session.hpp"
#include "sweep/campaign.hpp"
#include "sweep/reporter.hpp"
#include "sweep/selection.hpp"

using namespace reno;

int
main(int argc, char **argv)
{
    bool want_cpa = false;
    bool all_stats = false;
    std::string cpi_json;
    std::string cpi_html;
    sweep::SelectionArgs selection;
    sweep::CampaignOptions opts;
    obs::ObsOptions obs_opts;

    FlagTable table;
    sweep::addSelectionFlags(table, &selection);
    table.section("analysis");
    table.flag("--cpa", "critical-path analysis per job (single-core only)",
               &want_cpa);
    sweep::addCampaignFlags(table, &opts);
    table.section("output");
    table.flag("--all-stats", "report every named SimResult counter",
               &all_stats);
    table.file("--cpi-json",
               "write per-job CPI stacks + the campaign aggregate",
               &cpi_json);
    table.file("--cpi-html",
               "write a self-contained HTML report (stacked bars per "
               "job, hotspot tables)",
               &cpi_html);
    obs::addObsFlags(table, &obs_opts);
    obs::addFullRunObsFlags(table, &obs_opts);
    table.parse(argc, argv);

    const sweep::Selection sel = sweep::resolveSelection(selection);
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
