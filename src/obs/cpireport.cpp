#include "obs/cpireport.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>

#include "common/log.hpp"
#include "common/report.hpp"

namespace reno::obs
{

namespace
{

/** Cycles per CpiBucket: a core slot's SimResult::cpi row, or a sum. */
using Stack = std::array<std::uint64_t, NumCpiBuckets>;
using StackView = std::span<const std::uint64_t, NumCpiBuckets>;

/** The whole machine's stack: the sum over the core slots. */
Stack
machineStack(const SimResult &sim)
{
    Stack stack;
    for (unsigned b = 0; b < NumCpiBuckets; ++b)
        stack[b] = sim.cpiCycles(static_cast<CpiBucket>(b));
    return stack;
}

std::uint64_t
total(StackView stack)
{
    return std::accumulate(stack.begin(), stack.end(), std::uint64_t{0});
}

void
appendStack(std::string &out, StackView stack, const char *indent)
{
    out += "{";
    for (std::size_t i = 0; i < NumCpiBuckets; ++i) {
        out += strprintf("%s\n%s  \"%s\": %llu", i ? "," : "", indent,
                         CpiBucketNames[i],
                         static_cast<unsigned long long>(stack[i]));
    }
    out += strprintf("\n%s}", indent);
}

void
appendHotTable(std::string &out,
               const std::vector<HotspotProfile::Entry> &entries,
               const char *indent)
{
    out += "[";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const HotspotProfile::Entry &e = entries[i];
        out += strprintf(
            "%s\n%s  {\"pc\": \"0x%llx\", \"retired\": %llu, "
            "\"stall_cycles\": %llu}",
            i ? "," : "", indent,
            static_cast<unsigned long long>(e.pc),
            static_cast<unsigned long long>(e.retired),
            static_cast<unsigned long long>(e.stallCycles));
    }
    out += entries.empty() ? "]" : strprintf("\n%s]", indent);
}

/** Fixed color per bucket (stable across reports; colorblind-safe
 *  Okabe-Ito base extended with shades for the dcache sublevels). */
const char *
bucketColor(CpiBucket b)
{
    switch (b) {
      case CpiBucket::Base: return "#009e73";
      case CpiBucket::FrontIcache: return "#56b4e9";
      case CpiBucket::FrontBpred: return "#0072b2";
      case CpiBucket::BackRob: return "#e69f00";
      case CpiBucket::BackIq: return "#f0e442";
      case CpiBucket::BackPregs: return "#d55e00";
      case CpiBucket::BackLsq: return "#cc79a7";
      case CpiBucket::BackDcacheL1: return "#bbbbbb";
      case CpiBucket::BackDcacheL2: return "#888888";
      case CpiBucket::BackDcacheMem: return "#444444";
      case CpiBucket::BackCoherence: return "#aa0000";
      case CpiBucket::Drain: return "#eeddcc";
    }
    return "#000000";
}

} // namespace

std::string
renderCpiJson(const std::vector<CpiRow> &rows)
{
    Stack aggregate{};
    std::string out = "{\n  \"buckets\": [";
    for (std::size_t i = 0; i < NumCpiBuckets; ++i)
        out += strprintf("%s\"%s\"", i ? ", " : "", CpiBucketNames[i]);
    out += "],\n  \"jobs\": [";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const CpiRow &row = rows[r];
        const Stack machine = machineStack(row.sim);
        for (std::size_t i = 0; i < NumCpiBuckets; ++i)
            aggregate[i] += machine[i];
        out += strprintf(
            "%s\n    {\"workload\": \"%s\", \"config\": \"%s\", "
            "\"cores\": %u,\n     \"cycles\": %llu,\n     \"stack\": ",
            r ? "," : "", jsonEscape(row.workload).c_str(),
            jsonEscape(row.config).c_str(), row.cores,
            static_cast<unsigned long long>(total(machine)));
        appendStack(out, machine, "     ");
        out += ",\n     \"per_core\": [";
        const unsigned slots = std::min(row.cores, NumCoreStatSlots);
        for (unsigned c = 0; c < slots; ++c) {
            out += strprintf(
                "%s\n      {\"cycles\": %llu, \"stack\": ", c ? "," : "",
                static_cast<unsigned long long>(total(row.sim.cpi[c])));
            appendStack(out, row.sim.cpi[c], "      ");
            out += "}";
        }
        out += slots ? "\n     ]" : "]";
        out += ",\n     \"hot_retired\": ";
        appendHotTable(out, row.hot.retired, "     ");
        out += ",\n     \"hot_stall\": ";
        appendHotTable(out, row.hot.stall, "     ");
        out += strprintf(",\n     \"hotspot_dropped\": %llu}",
                         static_cast<unsigned long long>(row.hot.dropped));
    }
    out += rows.empty() ? "],\n" : "\n  ],\n";
    out += strprintf("  \"aggregate\": {\"cycles\": %llu, \"stack\": ",
                     static_cast<unsigned long long>(total(aggregate)));
    appendStack(out, aggregate, "  ");
    out += "}\n}\n";
    return out;
}

std::string
renderCpiHtml(const std::vector<CpiRow> &rows)
{
    std::string out;
    out +=
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        "<title>CPI stacks</title>\n<style>\n"
        "body { font: 14px sans-serif; margin: 2em; color: #222; }\n"
        "h1 { font-size: 1.4em; } h2 { font-size: 1.1em; }\n"
        ".bar { display: flex; height: 28px; width: 100%; max-width: "
        "900px;\n       border: 1px solid #999; margin: 2px 0 10px; }\n"
        ".seg { height: 100%; }\n"
        ".legend span { display: inline-block; margin-right: 1em; "
        "white-space: nowrap; }\n"
        ".swatch { display: inline-block; width: 12px; height: 12px; "
        "border: 1px solid #999;\n          margin-right: 4px; "
        "vertical-align: -1px; }\n"
        "table { border-collapse: collapse; margin: 0.5em 0 1.5em; }\n"
        "td, th { border: 1px solid #ccc; padding: 2px 10px; "
        "text-align: right; }\n"
        "th { background: #f2f2f2; }\n"
        "td.pc { font-family: monospace; text-align: left; }\n"
        "</style>\n</head>\n<body>\n<h1>CPI stacks</h1>\n";

    out += "<p class=\"legend\">";
    for (std::size_t i = 0; i < NumCpiBuckets; ++i) {
        const auto b = static_cast<CpiBucket>(i);
        out += strprintf(
            "<span><span class=\"swatch\" style=\"background:%s\">"
            "</span>%s</span>",
            bucketColor(b), CpiBucketNames[i]);
    }
    out += "</p>\n";

    for (const CpiRow &row : rows) {
        const Stack machine = machineStack(row.sim);
        const std::uint64_t cycles = total(machine);
        out += strprintf(
            "<h2>%s &middot; %s (%u core%s, %llu cycles)</h2>\n"
            "<div class=\"bar\">",
            jsonEscape(row.workload).c_str(),
            jsonEscape(row.config).c_str(), row.cores,
            row.cores == 1 ? "" : "s",
            static_cast<unsigned long long>(cycles));
        for (std::size_t i = 0; i < NumCpiBuckets && cycles; ++i) {
            const auto b = static_cast<CpiBucket>(i);
            const std::uint64_t c = machine[i];
            if (!c)
                continue;
            const double pct =
                100.0 * static_cast<double>(c) /
                static_cast<double>(cycles);
            out += strprintf(
                "<div class=\"seg\" style=\"width:%.3f%%;"
                "background:%s\" title=\"%s: %llu (%.1f%%)\"></div>",
                pct, bucketColor(b), CpiBucketNames[i],
                static_cast<unsigned long long>(c), pct);
        }
        out += "</div>\n";

        if (!row.hot.retired.empty() || !row.hot.stall.empty()) {
            out += "<table>\n<tr><th>pc</th><th>retired</th>"
                   "<th>stall cycles</th></tr>\n";
            // Merge both hotspot views into one table keyed by pc,
            // retaining the retired-ordered rows first.
            std::vector<HotspotProfile::Entry> merged = row.hot.retired;
            for (const HotspotProfile::Entry &e : row.hot.stall) {
                bool seen = false;
                for (const HotspotProfile::Entry &m : merged)
                    seen = seen || m.pc == e.pc;
                if (!seen)
                    merged.push_back(e);
            }
            for (const HotspotProfile::Entry &e : merged) {
                out += strprintf(
                    "<tr><td class=\"pc\">0x%llx</td><td>%llu</td>"
                    "<td>%llu</td></tr>\n",
                    static_cast<unsigned long long>(e.pc),
                    static_cast<unsigned long long>(e.retired),
                    static_cast<unsigned long long>(e.stallCycles));
            }
            out += "</table>\n";
            if (row.hot.dropped) {
                out += strprintf(
                    "<p>%llu profile events dropped (table full)</p>\n",
                    static_cast<unsigned long long>(row.hot.dropped));
            }
        }
    }
    out += "</body>\n</html>\n";
    return out;
}

std::string
renderSampledCpiJson(const std::vector<SampledCpiRow> &rows)
{
    std::string out = "{\n  \"buckets\": [";
    for (std::size_t i = 0; i < NumCpiBuckets; ++i)
        out += strprintf("%s\"%s\"", i ? ", " : "", CpiBucketNames[i]);
    out += "],\n  \"jobs\": [";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const SampledCpiRow &row = rows[r];
        double total = 0.0;
        for (double v : row.est)
            total += v;
        out += strprintf(
            "%s\n    {\"workload\": \"%s\", \"config\": \"%s\", "
            "\"cores\": %u,\n     \"est_cycles\": %.3f,\n"
            "     \"stack\": {",
            r ? "," : "", jsonEscape(row.workload).c_str(),
            jsonEscape(row.config).c_str(), row.cores, total);
        for (std::size_t i = 0; i < NumCpiBuckets; ++i) {
            out += strprintf(
                "%s\n       \"%s\": %.3f", i ? "," : "",
                CpiBucketNames[i], row.est[i]);
        }
        out += "\n     }}";
    }
    out += rows.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

} // namespace reno::obs
