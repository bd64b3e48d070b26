/**
 * @file
 * Pluggable campaign reporters: turn submission-ordered campaign
 * results into an aligned text table, a JSON array, or CSV, via the
 * generic emitters in common/report.hpp. The per-figure benchmark
 * binaries keep their bespoke tables; these reporters serve the
 * reno-sweep and reno-sample tools and any ad-hoc campaign.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "sweep/campaign.hpp"

namespace reno::sweep
{

enum class ReportFormat { Table, Json, Csv };

/** Parse "table" / "json" / "csv"; nullopt otherwise. */
std::optional<ReportFormat> reportFormatFromName(const std::string &s);

/** Flatten one job + result into a report record. */
ReportRecord recordFor(const Job &job, const JobResult &result);

/**
 * Like recordFor, but with every SimResult counter under its
 * canonical registry name (uarch/sim_result.hpp) instead of the
 * curated summary columns: the full named-stat export behind
 * reno-sweep --all-stats.
 */
ReportRecord recordForFull(const Job &job, const JobResult &result);

/** Render @p records in @p format (trailing newline included): the
 *  one format switch behind every campaign and sampling report. */
std::string renderRecords(const std::vector<ReportRecord> &records,
                          ReportFormat format);

/** Render a whole campaign in @p format (trailing newline included).
 *  @p all_stats selects the full named-stat records. */
std::string renderResults(const CampaignResults &results,
                          ReportFormat format, bool all_stats = false);

} // namespace reno::sweep
