#include "sweep/reporter.hpp"

namespace reno::sweep
{

std::optional<ReportFormat>
reportFormatFromName(const std::string &s)
{
    if (s == "table")
        return ReportFormat::Table;
    if (s == "json")
        return ReportFormat::Json;
    if (s == "csv")
        return ReportFormat::Csv;
    return std::nullopt;
}

namespace
{

void
addJobIdentity(ReportRecord &rec, const Job &job)
{
    addField(rec, "workload", job.workload->name);
    addField(rec, "suite", job.workload->suite);
    addField(rec, "config", job.config.name);
    if (!job.tag.empty())
        addField(rec, "tag", job.tag);
}

void
addCpaBreakdown(ReportRecord &rec, const JobResult &r)
{
    if (!r.hasCpa)
        return;
    const auto b = r.cpaBreakdown();
    for (unsigned i = 0; i < NumCpBuckets; ++i) {
        addField(rec,
                 std::string("cp_") +
                     cpBucketName(static_cast<CpBucket>(i)),
                 b[i], 4);
    }
}

} // namespace

ReportRecord
recordFor(const Job &job, const JobResult &r)
{
    ReportRecord rec;
    addJobIdentity(rec, job);
    addField(rec, "cycles", r.sim.cycles);
    addField(rec, "retired", r.sim.retired);
    addField(rec, "ipc", r.sim.ipc(), 4);
    addField(rec, "elim_me_pct",
             r.sim.elimFraction(ElimKind::Move) * 100, 2);
    addField(rec, "elim_cf_pct",
             r.sim.elimFraction(ElimKind::Fold) * 100, 2);
    addField(rec, "elim_csera_pct",
             (r.sim.elimFraction(ElimKind::Cse) +
              r.sim.elimFraction(ElimKind::Ra)) * 100, 2);
    addField(rec, "elim_total_pct", r.sim.elimFraction() * 100, 2);
    addField(rec, "it_accesses", r.sim.itAccesses);
    addField(rec, "bp_mispredicts", r.sim.bpMispredicts);
    addField(rec, "dcache_misses", r.sim.dcacheMisses);
    addField(rec, "l2_misses", r.sim.l2Misses);
    addCpaBreakdown(rec, r);
    return rec;
}

ReportRecord
recordForFull(const Job &job, const JobResult &r)
{
    ReportRecord rec;
    addJobIdentity(rec, job);
    addField(rec, "ipc", r.sim.ipc(), 4);
    for (const SimStatField &f : simResultFields())
        addField(rec, f.name, statValue(r.sim, f));
    addCpaBreakdown(rec, r);
    return rec;
}

std::string
renderResults(const CampaignResults &results, ReportFormat format,
              bool all_stats)
{
    std::vector<ReportRecord> records;
    records.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        records.push_back(all_stats
                              ? recordForFull(results.job(i),
                                              results.at(i))
                              : recordFor(results.job(i),
                                          results.at(i)));
    return renderRecords(records, format);
}

std::string
renderRecords(const std::vector<ReportRecord> &records,
              ReportFormat format)
{
    switch (format) {
      case ReportFormat::Json:
        return renderJson(records);
      case ReportFormat::Csv:
        return renderCsv(records);
      case ReportFormat::Table:
      default:
        return renderTable(records);
    }
}

} // namespace reno::sweep
