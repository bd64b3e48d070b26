/**
 * @file
 * The paper's evaluation as data: one record per figure or ablation.
 * A record declares its (workload x config) jobs into a campaign and
 * renders its tables from that campaign's results; reno_figures.cpp
 * runs the selected records as one campaign.
 */
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sweep/campaign.hpp"

namespace reno::bench
{

/** One figure or ablation of the paper's evaluation. */
struct Figure {
    std::string name;      //!< --figure NAME
    std::string title;     //!< first line of the banner
    std::string paperRef;  //!< where in the paper, e.g. "Figure 9"
    /** Add this figure's jobs to @p campaign. */
    std::function<void(sweep::Campaign &campaign)> declare;
    /** Print this figure's tables (after the banner) from the results
     *  of a campaign holding exactly the jobs declare() added. */
    std::function<void(const sweep::CampaignResults &results)> render;
};

/** Every figure, in print order: Figures 8-12, then the ablations. */
const std::vector<Figure> &figures();

} // namespace reno::bench
