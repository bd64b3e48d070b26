/**
 * @file
 * The figure records: Figures 8-12 of the RENO paper and the
 * section 2.4 / 3.2 / 3.3 ablations. Each record's comment states the
 * paper's shape targets for it.
 */
#include "figures.hpp"

#include <cstdio>

#include "common/log.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"

namespace reno::bench
{

namespace
{

using Results = sweep::CampaignResults;
using Suites =
    std::vector<std::pair<std::string, std::vector<const Workload *>>>;

const Suites &
suites()
{
    static const Suites all = benchmarkSuites();
    return all;
}

/** The paper's 4- or 6-wide machine. */
CoreParams
machine(unsigned width)
{
    return *CoreParams::ofWidth(width);
}

/** The job tag of a per-width figure: "4w" / "6w". */
std::string
widthTag(unsigned width)
{
    return strprintf("%uw", width);
}

/** Every workload of both suites under every config in @p configs. */
void
addAll(sweep::Campaign &campaign, const std::vector<NamedConfig> &configs,
       const std::string &tag = "")
{
    for (const auto &[suite_name, workloads] : suites())
        campaign.addCross(workloads, configs, tag);
}

/** Print one suite's table under "<suite> (<note>):". */
void
printSuiteTable(const std::string &suite, const std::string &note,
                const TextTable &table)
{
    const std::string caption =
        note.empty() ? suite : suite + " (" + note + ")";
    std::printf("\n%s:\n", caption.c_str());
    table.print();
}

/** One column of a per-benchmark table. */
struct Column {
    std::string header;
    int decimals = 1;
    /** The amean row shows the column's mean; false leaves it blank. */
    bool mean = true;
    /** When set, the amean row's cell is this function of every
     *  column's mean instead. */
    std::function<double(const std::vector<double> &means)> fromMeans = {};
};

/**
 * For each suite, a table with one row per workload -- the values
 * @p cells returns for it, one per column -- and an "amean" row.
 */
void
printBenchmarkTables(
    const std::string &note, const std::vector<Column> &columns,
    const std::function<std::vector<double>(const std::string &)> &cells)
{
    std::vector<std::string> header{"benchmark"};
    for (const Column &col : columns)
        header.push_back(col.header);
    for (const auto &[suite_name, workloads] : suites()) {
        TextTable t;
        t.header(header);
        std::vector<std::vector<double>> values(columns.size());
        for (const Workload *w : workloads) {
            const std::vector<double> row = cells(w->name);
            std::vector<std::string> text{w->name};
            for (std::size_t c = 0; c < columns.size(); ++c) {
                values[c].push_back(row[c]);
                text.push_back(fmtDouble(row[c], columns[c].decimals));
            }
            t.row(text);
        }
        std::vector<double> means;
        for (const std::vector<double> &column : values)
            means.push_back(amean(column));
        std::vector<std::string> summary{"amean"};
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const Column &col = columns[c];
            summary.push_back(
                col.fromMeans ? fmtDouble(col.fromMeans(means),
                                          col.decimals)
                : col.mean    ? fmtDouble(means[c], col.decimals)
                              : "");
        }
        t.row(summary);
        printSuiteTable(suite_name, note, t);
    }
}

/** Per-benchmark % speedup of each of @p configs over @p base. */
void
printSpeedupTables(const Results &results, const std::string &note,
                   const std::string &base,
                   const std::vector<NamedConfig> &configs,
                   const std::string &tag = "")
{
    std::vector<Column> columns;
    for (const NamedConfig &cfg : configs)
        columns.push_back({cfg.name});
    printBenchmarkTables(note, columns, [&](const std::string &w) {
        const std::uint64_t base_cycles =
            results.get(w, base, tag).sim.cycles;
        std::vector<double> row;
        for (const NamedConfig &cfg : configs) {
            row.push_back(speedupPercent(
                base_cycles, results.get(w, cfg.name, tag).sim.cycles));
        }
        return row;
    });
}

/** A machine variant of a normalized-performance figure. */
struct Variant {
    std::string tag;    //!< job tag
    std::string label;  //!< column header
    CoreParams params;  //!< the machine, before its RENO level
};

/**
 * A normalized-performance figure (Figures 11 and 12): each variant
 * machine under BASE, CF+ME and full RENO, as the per-suite amean of
 * 100 x reference cycles / cycles, where the reference is the
 * @p reference machine without RENO.
 */
Figure
normalizedFigure(std::string name, std::string title,
                 std::string paper_ref, CoreParams reference,
                 std::string reference_label, std::vector<Variant> variants)
{
    static const std::vector<std::pair<std::string, RenoConfig>> levels = {
        {"BASE", RenoConfig::baseline()},
        {"CF+ME", RenoConfig::meCf()},
        {"RA+CSE", RenoConfig::full()},
    };
    auto declare = [reference, variants](sweep::Campaign &campaign) {
        for (const auto &[suite_name, workloads] : suites()) {
            for (const Workload *w : workloads) {
                campaign.add(*w, {"ref", reference});
                for (const auto &[level, reno_cfg] : levels) {
                    for (const Variant &v : variants) {
                        CoreParams p = v.params;
                        p.reno = reno_cfg;
                        campaign.add(*w, {level, p}, v.tag);
                    }
                }
            }
        }
    };
    auto render = [reference_label, variants](const Results &results) {
        for (const auto &[suite_name, workloads] : suites()) {
            TextTable t;
            std::vector<std::string> header{"config"};
            for (const Variant &v : variants)
                header.push_back(v.label);
            t.header(header);
            for (const auto &[level, reno_cfg] : levels) {
                std::vector<std::string> row{level};
                for (const Variant &v : variants) {
                    std::vector<double> rel;
                    for (const Workload *w : workloads) {
                        const std::uint64_t ref =
                            results.get(w->name, "ref").sim.cycles;
                        const std::uint64_t cyc =
                            results.get(w->name, level, v.tag)
                                .sim.cycles;
                        rel.push_back(100.0 * double(ref) / double(cyc));
                    }
                    row.push_back(fmtDouble(amean(rel), 1));
                }
                t.row(row);
            }
            printSuiteTable(suite_name,
                            "performance, " + reference_label + " = 100",
                            t);
        }
    };
    return {std::move(name), std::move(title), std::move(paper_ref),
            declare, render};
}

/*
 * Figure 8 (top): fraction of dynamic instructions eliminated or
 * folded by each RENO optimization - moves (RENO_ME), register-
 * immediate additions (RENO_CF) and loads (RENO_CSE+RA) - on the
 * 4-wide and 6-wide machines, for both suites.
 *
 * Paper shape targets: ~4% ME, 12% (SPEC) / 16% (MediaBench) CF,
 * 5% / 3.3% CSE+RA; total ~22%; slightly lower at 6-wide because the
 * dependent-elimination-per-cycle restriction binds more often.
 */
Figure
fig08Elimination()
{
    auto declare = [](sweep::Campaign &campaign) {
        for (const unsigned width : {4u, 6u}) {
            addAll(campaign,
                   {{"RENO", withReno(machine(width), RenoConfig::full())}},
                   widthTag(width));
        }
    };
    auto render = [](const Results &results) {
        for (const unsigned width : {4u, 6u}) {
            std::printf("\n--- %u-wide machine ---\n", width);
            printBenchmarkTables(
                "", {{"ME%"}, {"CF%"}, {"CSE+RA%"}, {"total%"}},
                [&](const std::string &w) {
                    const SimResult r =
                        results.get(w, "RENO", widthTag(width)).sim;
                    const double m = r.elimFraction(ElimKind::Move) * 100;
                    const double c = r.elimFraction(ElimKind::Fold) * 100;
                    const double l = (r.elimFraction(ElimKind::Cse) +
                                      r.elimFraction(ElimKind::Ra)) * 100;
                    return std::vector<double>{m, c, l, m + c + l};
                });
        }
    };
    return {"fig08_elimination",
            "Figure 8 (top): % dynamic instructions eliminated",
            "Figure 8 top", declare, render};
}

/*
 * Figure 8 (bottom): percentage speedup over the RENO-less baseline
 * for the cumulative configurations ME, ME+CF and full RENO, on the
 * 4-wide and 6-wide machines.
 *
 * Paper shape targets: full RENO averages +8% on SPECint and +13% on
 * MediaBench at 4-wide; lower (6% / 11%) at 6-wide; ME and ME+CF
 * alone deliver roughly half the benefit.
 */
Figure
fig08Speedup()
{
    auto declare = [](sweep::Campaign &campaign) {
        for (const unsigned width : {4u, 6u})
            addAll(campaign, renoBuildup(machine(width)), widthTag(width));
    };
    auto render = [](const Results &results) {
        for (const unsigned width : {4u, 6u}) {
            const std::vector<NamedConfig> configs =
                renoBuildup(machine(width));
            std::printf("\n--- %u-wide machine ---\n", width);
            printSpeedupTables(results, "% speedup", configs[0].name,
                               {configs.begin() + 1, configs.end()},
                               widthTag(width));
        }
    };
    return {"fig08_speedup", "Figure 8 (bottom): % speedup over baseline",
            "Figure 8 bottom", declare, render};
}

/*
 * Figure 9: critical-path breakdown (fetch / alu exec / load exec /
 * load mem / commit) for the baseline, ME+CF, and full RENO, on the
 * paper's Figure 9 selection of benchmarks from each suite.
 *
 * Paper shape targets: MediaBench is markedly more ALU-critical than
 * SPECint; SPECint is more load/memory-critical; RENO shrinks the
 * exec components and often grows the relative fetch component.
 */
Figure
fig09Critpath()
{
    // The paper's selections: crafty, eon.k, gap, gzip, parser,
    // perl.s, vortex, vpr.r / adpcm.de, epic, g721.en, gsm.de,
    // jpg.de, mesa.m, mesa.t, mpg2.en, pegw.en.
    static const std::vector<std::pair<std::string,
                                       std::vector<std::string>>>
        selections = {
            {"SPECint-like selection",
             {"crafty", "eon.k", "gap", "gzip", "parser", "perl.s",
              "vortex", "vpr.r"}},
            {"MediaBench-like selection",
             {"adpcm.dec", "epic", "g721.enc", "gsm.dec", "jpeg.dec",
              "mesa.m", "mesa.t", "mpeg2.enc", "pegw.enc"}},
        };
    static const std::vector<NamedConfig> configs = {
        {"BASE", withReno(machine(4), RenoConfig::baseline())},
        {"ME+CF", withReno(machine(4), RenoConfig::meCf())},
        {"RENO", withReno(machine(4), RenoConfig::full())},
    };
    auto declare = [](sweep::Campaign &campaign) {
        for (const auto &[label, names] : selections) {
            for (const std::string &name : names) {
                for (const NamedConfig &cfg : configs)
                    campaign.add(workloadByName(name), cfg, "",
                                 /*want_cpa=*/true);
            }
        }
    };
    auto render = [](const Results &results) {
        for (const auto &[label, names] : selections) {
            TextTable t;
            t.header({"benchmark", "config", "fetch%", "alu%", "load%",
                      "mem%", "commit%"});
            for (const std::string &name : names) {
                for (const NamedConfig &cfg : configs) {
                    const auto b =
                        results.get(name, cfg.name).cpaBreakdown();
                    t.row({name, cfg.name, fmtDouble(b[0] * 100, 1),
                           fmtDouble(b[1] * 100, 1),
                           fmtDouble(b[2] * 100, 1),
                           fmtDouble(b[3] * 100, 1),
                           fmtDouble(b[4] * 100, 1)});
                }
            }
            printSuiteTable(label, "", t);
        }
    };
    return {"fig09_critpath", "Figure 9: critical-path breakdown",
            "Figure 9", declare, render};
}

/*
 * Figure 10: dividing labor between RENO_CF and RENO_CSE+RA. Four
 * configurations per benchmark:
 *
 *   RENO           - CF handles ALU ops, loads-only IT (the default)
 *   RENO+FullInteg - CF plus a full (ALU + load) IT
 *   FullInteg      - register integration alone (no CF)
 *   LoadsInteg     - loads-only integration, no CF
 *
 * Plus the IT bandwidth comparison the paper quotes: the full-IT
 * configuration needs ~70% more table accesses than RENO.
 *
 * Paper shape targets: RENO ~= RENO+FullInteg (within ~0.5%), RENO
 * beats FullInteg by ~3% (SPEC) / ~6% (MediaBench), and beats
 * LoadsInteg by more.
 */
Figure
fig10Division()
{
    auto declare = [](sweep::Campaign &campaign) {
        for (const auto &[suite_name, workloads] : suites()) {
            campaign.addCross(
                workloads,
                {{"BASE", withReno(machine(4), RenoConfig::baseline())}});
            campaign.addCross(workloads, divisionOfLabor(machine(4)));
        }
    };
    auto render = [](const Results &results) {
        const std::vector<NamedConfig> configs =
            divisionOfLabor(machine(4));
        printSpeedupTables(results, "% speedup over baseline", "BASE",
                           configs);
        std::uint64_t reno = 0, full_it = 0;
        for (const auto &[suite_name, workloads] : suites()) {
            for (const Workload *w : workloads) {
                reno += results.get(w->name, configs[0].name)
                            .sim.itAccesses;
                full_it += results.get(w->name, configs[1].name)
                               .sim.itAccesses;
            }
        }
        std::printf("\nIT bandwidth: full-IT configuration performs "
                    "%.0f%% more table accesses than RENO "
                    "(paper: ~70%% more)\n",
                    reno ? (double(full_it) / double(reno) - 1.0) * 100.0
                         : 0.0);
    };
    return {"fig10_division",
            "Figure 10: cooperation between RENO_CF and RENO_CSE+RA",
            "Figure 10", declare, render};
}

/*
 * Figure 11 (top): RENO compensating for physical register file
 * reductions, normalized to the 160-register RENO-less baseline.
 *
 * Paper shape targets: ME+CF alone compensates for a reduction from
 * 160 to 112 registers; adding CSE+RA tolerates 96.
 */
Figure
fig11Pregs()
{
    std::vector<Variant> variants;
    for (const unsigned size : {96u, 112u, 128u, 160u}) {
        CoreParams p;
        p.numPregs = size;
        variants.push_back(
            {strprintf("%u", size), strprintf("%u pregs", size), p});
    }
    return normalizedFigure(
        "fig11_pregs", "Figure 11 (top): RENO vs physical register file size",
        "Figure 11 top", CoreParams{}, "160-preg baseline", variants);
}

/*
 * Figure 11 (bottom): RENO compensating for issue-width reductions:
 * the i2t2 (2 integer / 2 total), i2t3 and i3t4 issue configurations,
 * normalized to the full-width (3 integer / 6 total) RENO-less
 * baseline.
 *
 * Paper shape targets: CF+ME compensates for losing one issue slot
 * and an ALU (i3t4 -> even with baseline or better); full RENO on
 * 3-wide beats the 4-wide baseline on SPEC; a 50% issue cut (i2t2)
 * cannot be fully recovered but comes within several percent.
 */
Figure
fig11Width()
{
    return normalizedFigure(
        "fig11_width", "Figure 11 (bottom): RENO vs issue width",
        "Figure 11 bottom", machine(4), "full-width baseline",
        {{"i2t2", "i2t2", CoreParams::issueReduced(2, 2)},
         {"i2t3", "i2t3", CoreParams::issueReduced(2, 3)},
         {"i3t4", "i3t4", CoreParams::issueReduced(3, 4)}});
}

/*
 * Figure 12: RENO with a 2-cycle wakeup/select scheduling loop,
 * normalized to the 1-cycle RENO-less baseline.
 *
 * Paper shape targets: a 2-cycle loop costs the baseline ~7% (SPEC)
 * and ~11% (MediaBench); RENO compensates for the loss on SPEC and
 * even gains ~2.5% on MediaBench, by collapsing single-cycle
 * operations out of the dataflow graph rather than fusing them.
 */
Figure
fig12Schedloop()
{
    std::vector<Variant> variants;
    for (const unsigned sched : {1u, 2u}) {
        CoreParams p;
        p.schedLoop = sched;
        variants.push_back({strprintf("%uc", sched),
                            strprintf("%u-cycle", sched), p});
    }
    return normalizedFigure(
        "fig12_schedloop", "Figure 12: RENO with a 2-cycle wakeup-select loop",
        "Figure 12", machine(4), "1-cycle baseline", variants);
}

/*
 * Ablation (paper section 3.3): what if fused operations are never
 * free? The paper assumes 3-input carry-save adders make add-add
 * fusion zero-cycle and predicts that charging every fused operation
 * an extra cycle would cost RENO_CF only 20-25% of its relative
 * advantage (1-2% absolute).
 *
 * Three configurations per suite: BASE, ME+CF with free add-add
 * fusion, ME+CF with 1-cycle fusion everywhere.
 */
Figure
ablateFusion()
{
    auto declare = [](sweep::Campaign &campaign) {
        CoreParams free_p;
        free_p.reno = RenoConfig::meCf();
        CoreParams slow_p = free_p;
        slow_p.freeAddAddFusion = false;
        addAll(campaign,
               {{"BASE", machine(4)}, {"free", free_p}, {"slow", slow_p}});
    };
    auto render = [](const Results &results) {
        const auto kept = [](double s_free, double s_slow) {
            return s_free > 0.01 ? 100.0 * s_slow / s_free : 100.0;
        };
        printBenchmarkTables(
            "% speedup over baseline; paper predicts 75-80% of the "
            "benefit kept",
            {{"CF free-fusion"},
             {"CF slow-fusion"},
             {"benefit kept%", 0, false,
              [&](const std::vector<double> &means) {
                  return kept(means[0], means[1]);
              }}},
            [&](const std::string &w) {
                const std::uint64_t base =
                    results.get(w, "BASE").sim.cycles;
                const double s_free = speedupPercent(
                    base, results.get(w, "free").sim.cycles);
                const double s_slow = speedupPercent(
                    base, results.get(w, "slow").sim.cycles);
                return std::vector<double>{s_free, s_slow,
                                           kept(s_free, s_slow)};
            });
    };
    return {"ablate_fusion",
            "Ablation: 3-input-adder (free) vs 2-cycle fusion",
            "section 3.3 claim", declare, render};
}

/*
 * Ablation (paper section 3.2): RENO never
 * eliminates two *dependent* instructions renamed in the same cycle;
 * this keeps the output-selection mux linear rather than quadratic in
 * the rename width. The paper argues such pairs are rare (a compiler
 * would have folded them statically) but notes they become somewhat
 * more common at 6-wide rename.
 *
 * Counts the folds lost to the restriction (group-dependence
 * cancels) per 1000 retired instructions at 4- and 6-wide, alongside
 * the total elimination rate, making the Figure 8 "small drop from 4-
 * to 6-wide" directly measurable.
 */
Figure
ablateGroupdep()
{
    auto declare = [](sweep::Campaign &campaign) {
        addAll(campaign,
               {{"4w", withReno(machine(4), RenoConfig::full())},
                {"6w", withReno(machine(6), RenoConfig::full())}});
    };
    auto render = [](const Results &results) {
        const auto per_mille = [](std::uint64_t n, std::uint64_t retired) {
            return retired ? 1000.0 * double(n) / double(retired) : 0.0;
        };
        printBenchmarkTables(
            "the 6-wide machine should lose slightly more folds to the "
            "restriction",
            {{"4w elim%", 1, false},
             {"4w cancels/1k", 2},
             {"6w elim%", 1, false},
             {"6w cancels/1k", 2}},
            [&](const std::string &w) {
                const SimResult r4 = results.get(w, "4w").sim;
                const SimResult r6 = results.get(w, "6w").sim;
                return std::vector<double>{
                    r4.elimFraction() * 100,
                    per_mille(r4.groupDepCancels, r4.retired),
                    r6.elimFraction() * 100,
                    per_mille(r6.groupDepCancels, r6.retired)};
            });
    };
    return {"ablate_groupdep",
            "Ablation: dependent-elimination-per-cycle restriction",
            "sections 3.2 and 4.2", declare, render};
}

/*
 * Ablation (paper section 2.4): integration-table size and policy.
 * The loads-only division of labor halves the required IT size and
 * cuts its bandwidth while keeping peak collapsing rates. This sweep
 * measures elimination rate, IT accesses and speedup across table
 * sizes for the loads-only and full-IT policies.
 */
Figure
ablateIttable()
{
    static const std::vector<unsigned> sizes = {128, 256, 512, 1024};
    const auto policy_tag = [](bool loads_only, unsigned entries) {
        return strprintf("%s/%u", loads_only ? "loads" : "full", entries);
    };
    auto declare = [policy_tag](sweep::Campaign &campaign) {
        addAll(campaign, {{"BASE", machine(4)}});
        for (const bool loads_only : {true, false}) {
            for (const unsigned entries : sizes) {
                CoreParams p;
                p.reno = loads_only ? RenoConfig::full()
                                    : RenoConfig::fullIt();
                p.reno.it.entries = entries;
                addAll(campaign, {{"IT", p}},
                       policy_tag(loads_only, entries));
            }
        }
    };
    auto render = [policy_tag](const Results &results) {
        for (const auto &[suite_name, workloads] : suites()) {
            TextTable t;
            t.header({"policy", "IT entries", "speedup%", "loads elim%",
                      "IT accesses/1k insts"});
            for (const bool loads_only : {true, false}) {
                for (const unsigned entries : sizes) {
                    std::vector<double> speedups, load_elims, accesses;
                    for (const Workload *w : workloads) {
                        const std::uint64_t base =
                            results.get(w->name, "BASE").sim.cycles;
                        const SimResult r =
                            results.get(w->name, "IT",
                                        policy_tag(loads_only, entries))
                                .sim;
                        speedups.push_back(speedupPercent(base, r.cycles));
                        load_elims.push_back(
                            (r.elimFraction(ElimKind::Cse) +
                             r.elimFraction(ElimKind::Ra)) * 100);
                        accesses.push_back(1000.0 * double(r.itAccesses) /
                                           double(r.retired));
                    }
                    t.row({loads_only ? "loads-only" : "full",
                           strprintf("%u", entries),
                           fmtDouble(amean(speedups), 1),
                           fmtDouble(amean(load_elims), 1),
                           fmtDouble(amean(accesses), 0)});
                }
            }
            printSuiteTable(suite_name, "", t);
        }
    };
    return {"ablate_ittable", "Ablation: integration table size and policy",
            "section 2.4 claims", declare, render};
}

/*
 * Ablation (paper section 3.2): the renaming
 * pipeline checks displacement overflow *conservatively*, comparing
 * the top two bits of the instruction immediate and the current
 * map-table displacement, because the exact 16-bit sum is not
 * available until the second rename stage. A conservative check
 * cancels some folds that an exact check would keep.
 *
 * Quantifies the cost: folds canceled, CF elimination rate and
 * speedup under the conservative check vs an exact 16-bit check.
 */
Figure
ablateOverflow()
{
    auto declare = [](sweep::Campaign &campaign) {
        CoreParams cons_p;
        cons_p.reno = RenoConfig::meCf();
        CoreParams exact_p = cons_p;
        exact_p.reno.exactOverflowCheck = true;
        addAll(campaign, {{"BASE", machine(4)},
                          {"cons", cons_p},
                          {"exact", exact_p}});
    };
    auto render = [](const Results &results) {
        printBenchmarkTables(
            "conservative check should cancel more folds but cost "
            "almost no performance",
            {{"cons CF%", 1, false},
             {"exact CF%", 1, false},
             {"cons cancels", 0, false},
             {"exact cancels", 0, false},
             {"cons speedup"},
             {"exact speedup"}},
            [&](const std::string &w) {
                const std::uint64_t base =
                    results.get(w, "BASE").sim.cycles;
                const SimResult cons = results.get(w, "cons").sim;
                const SimResult exact = results.get(w, "exact").sim;
                return std::vector<double>{
                    cons.elimFraction(ElimKind::Fold) * 100,
                    exact.elimFraction(ElimKind::Fold) * 100,
                    double(cons.overflowCancels),
                    double(exact.overflowCancels),
                    speedupPercent(base, cons.cycles),
                    speedupPercent(base, exact.cycles)};
            });
    };
    return {"ablate_overflow",
            "Ablation: conservative vs exact displacement-overflow check",
            "section 3.2", declare, render};
}

} // namespace

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> all = {
        fig08Elimination(), fig08Speedup(),  fig09Critpath(),
        fig10Division(),    fig11Pregs(),    fig11Width(),
        fig12Schedloop(),   ablateFusion(),  ablateGroupdep(),
        ablateIttable(),    ablateOverflow(),
    };
    return all;
}

} // namespace reno::bench
