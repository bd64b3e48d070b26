/**
 * @file
 * reno-figures: the paper's evaluation -- Figures 8-12 and the
 * section 2.4 / 3.2 / 3.3 ablations -- from one campaign.
 *
 * `reno-figures --help` lists the flags: --figure (repeatable) picks
 * figures, --list names them, and the campaign engine's flags set
 * workers and the result cache.
 *
 * The selected figures' jobs run as one deduplicated campaign, so a
 * job two figures share simulates once. Each figure then renders from
 * a campaign of its own jobs, answered from the shared result cache:
 * its lookups resolve among its own jobs only, since two figures may
 * use one (workload, config, tag) key for different jobs (Figure 9's
 * "BASE" requests critical-path analysis, Figure 10's does not).
 * Tables go to stdout in registry order; --sweep-stats summarizes the
 * shared run on stderr.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "figures.hpp"
#include "sweep/campaign.hpp"

using namespace reno;
using namespace reno::bench;

namespace
{

void
printBanner(const Figure &figure)
{
    std::printf("==================================================\n");
    std::printf("%s\n", figure.title.c_str());
    std::printf("(reproduces RENO TR MS-CIS-04-28 / ISCA 2005, %s)\n",
                figure.paperRef.c_str());
    std::printf("==================================================\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Figure> &registry = figures();
    std::vector<bool> selected(registry.size(), false);
    bool any_selected = false;
    bool list = false;
    sweep::CampaignOptions opts;

    FlagTable table;
    table.section("figures");
    table.value("--figure", "NAME",
                "print this figure (repeatable; default: every one)",
                [&](const std::string &name) {
                    const auto it = std::find_if(
                        registry.begin(), registry.end(),
                        [&](const Figure &f) { return f.name == name; });
                    if (it == registry.end())
                        fatal("unknown figure '%s' (try --list)",
                              name.c_str());
                    selected[std::size_t(it - registry.begin())] = true;
                    any_selected = true;
                });
    table.flag("--list", "print each figure's name and paper reference",
               &list);
    sweep::addCampaignFlags(table, &opts);
    table.parse(argc, argv);

    if (list) {
        for (const Figure &f : registry)
            std::printf("%-18s %s\n", f.name.c_str(), f.paperRef.c_str());
        return 0;
    }

    sweep::ResultCache cache(opts.cacheDir);

    std::vector<const Figure *> run;
    std::vector<sweep::Campaign> campaigns;
    sweep::Campaign all;
    for (std::size_t i = 0; i < registry.size(); ++i) {
        if (any_selected && !selected[i])
            continue;
        run.push_back(&registry[i]);
        registry[i].declare(campaigns.emplace_back());
        for (const sweep::Job &job : campaigns.back().jobs())
            all.add(job);
    }

    sweep::CampaignOptions shared = opts;
    shared.cache = &cache;
    all.run(shared);

    // Every job is now in the cache's memory: these runs only look up.
    sweep::CampaignOptions replay;
    replay.jobs = 1;
    replay.cache = &cache;
    for (std::size_t i = 0; i < run.size(); ++i) {
        printBanner(*run[i]);
        run[i]->render(campaigns[i].run(replay));
    }
    return 0;
}
