/**
 * @file
 * Campaign-facing CPI-stack artifacts: the renderers behind
 * `reno-sweep --cpi-json/--cpi-html` and `reno-sample --cpi-json`.
 * The stacks are SimResult registry fields, so a job replayed from
 * the result cache renders the same stack as the run that simulated
 * it; only the hotspot tables are a side channel.
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "uarch/sim_result.hpp"

namespace reno::obs
{

/** One (workload, config) row of a campaign CPI artifact. */
struct CpiRow {
    std::string workload;
    std::string config;
    unsigned cores = 1;
    SimResult sim;     //!< the stacks: SimResult::cpi, per core slot
    HotspotReport hot;
};

/**
 * Deterministic JSON artifact: bucket names, one object per job
 * (stack + per-core-slot stacks + hotspot tables, each stack carrying
 * its own "cycles" total so the sum-to-cycles identity is checkable
 * from the file alone), and the campaign-wide aggregate stack. Cores
 * beyond the last slot fold into it, as in SimResult.
 */
std::string renderCpiJson(const std::vector<CpiRow> &rows);

/**
 * Self-contained HTML report (inline CSS, no scripts): a stacked
 * cycle-accounting bar per (workload, config) plus the hotspot table
 * of every profiled job.
 */
std::string renderCpiHtml(const std::vector<CpiRow> &rows);

/** One sampled-estimate row (`reno-sample --cpi-json`). */
struct SampledCpiRow {
    std::string workload;
    std::string config;
    unsigned cores = 1;
    /** Extrapolated whole-program cycles per bucket (same estimator
     *  as the sampled IPC; fractional by nature). */
    std::array<double, NumCpiBuckets> est{};
};

/** JSON artifact for extrapolated sampled stacks. */
std::string renderSampledCpiJson(const std::vector<SampledCpiRow> &rows);

} // namespace reno::obs
