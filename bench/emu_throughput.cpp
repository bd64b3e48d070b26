/**
 * @file
 * Functional-emulator throughput microbenchmark: per-step interpreter
 * vs. pre-decoded superblock execution (src/emu/decoded.hpp) on a
 * workload suite, reported as Minstr/s with per-workload and geomean
 * speedups, and emitted as a BENCH_emu.json artifact (the CI
 * fast-forward speedup gate reads "geomean_speedup").
 *
 * Every decoded-mode run is checked bit-exact against the interpreter
 * (output bytes, instruction count, exit code, memory digest) before
 * any timing is reported, so the artifact doubles as an equivalence
 * gate.
 *
 * usage: emu_throughput [--suite S] [--repeat N] [--out FILE]
 * (`emu_throughput --help` describes them).
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "emu/emulator.hpp"
#include "harness/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace reno;

namespace
{

struct Row {
    std::string name;
    std::uint64_t insts = 0;
    double interpSec = 0.0;
    double decodedSec = 0.0;
    std::uint64_t blocks = 0;
    std::uint64_t superblocks = 0;
    double hitRate = 0.0;

    double interpMips() const { return insts / interpSec / 1e6; }
    double decodedMips() const { return insts / decodedSec / 1e6; }
    double speedup() const { return interpSec / decodedSec; }
};

struct RunResult {
    std::string output;
    std::uint64_t insts = 0;
    std::uint64_t exitCode = 0;
    std::uint64_t memDigest = 0;
    double seconds = 0.0;
    BlockCacheStats stats;
};

RunResult
timedRun(const Workload &w, bool decoded)
{
    const Program &prog = assembleWorkload(w);
    Emulator::Options opts;
    opts.randSeed = w.seed;
    opts.decodedExec = decoded;
    Emulator emu(prog, opts);

    const auto t0 = std::chrono::steady_clock::now();
    emu.run();
    const auto t1 = std::chrono::steady_clock::now();

    RunResult r;
    r.output = emu.output();
    r.insts = emu.instCount();
    r.exitCode = emu.exitCode();
    r.memDigest = emu.memory().digest();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.stats = emu.blockStats();
    return r;
}

void
checkEquivalent(const std::string &name, const RunResult &interp,
                const RunResult &decoded)
{
    if (interp.output != decoded.output)
        fatal("%s: decoded output differs from interpreter",
              name.c_str());
    if (interp.insts != decoded.insts)
        fatal("%s: decoded instruction count %llu != interpreter %llu",
              name.c_str(),
              static_cast<unsigned long long>(decoded.insts),
              static_cast<unsigned long long>(interp.insts));
    if (interp.exitCode != decoded.exitCode)
        fatal("%s: decoded exit code differs", name.c_str());
    if (interp.memDigest != decoded.memDigest)
        fatal("%s: decoded memory digest 0x%llx != interpreter 0x%llx",
              name.c_str(),
              static_cast<unsigned long long>(decoded.memDigest),
              static_cast<unsigned long long>(interp.memDigest));
}

void
writeJson(const std::string &path, const std::string &suite,
          unsigned repeat, const std::vector<Row> &rows,
          double geomean)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"emu_throughput\",\n");
    std::fprintf(f, "  \"suite\": \"%s\",\n", suite.c_str());
    std::fprintf(f, "  \"repeat\": %u,\n", repeat);
    std::fprintf(f, "  \"workloads\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f, "    {\"name\": \"%s\", \"insts\": %llu, "
                        "\"interp_seconds\": %.6f, "
                        "\"decoded_seconds\": %.6f, "
                        "\"interp_minstr_s\": %.2f, "
                        "\"decoded_minstr_s\": %.2f, "
                        "\"speedup\": %.3f, "
                        "\"blocks_decoded\": %llu, "
                        "\"superblocks_chained\": %llu, "
                        "\"block_hit_rate\": %.6f}%s\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.insts),
                     r.interpSec, r.decodedSec,
                     r.interpMips(), r.decodedMips(), r.speedup(),
                     static_cast<unsigned long long>(r.blocks),
                     static_cast<unsigned long long>(r.superblocks),
                     r.hitRate,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"geomean_speedup\": %.3f\n", geomean);
    std::fprintf(f, "}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string suite = "synth";
    std::string out = "BENCH_emu.json";
    unsigned repeat = 3;
    FlagTable table;
    table.value("--suite", "S", "workload suite to time (default synth)",
                &suite);
    table.number("--repeat", "N",
                 "timed repetitions per mode; best-of-N (default 3)",
                 &repeat);
    table.value("--out", "FILE",
                "JSON artifact path (default BENCH_emu.json)", &out);
    table.parse(argc, argv);
    if (repeat == 0)
        repeat = 1;

    const auto workloads = suiteWorkloads(suite);
    std::printf("emu_throughput: %zu '%s' workloads, best of %u "
                "(interpreter vs decoded superblocks)\n\n",
                workloads.size(), suite.c_str(), repeat);
    std::printf("%-24s %12s %10s %10s %8s\n", "workload", "insts",
                "interp", "decoded", "speedup");
    std::printf("%-24s %12s %10s %10s %8s\n", "", "", "Minstr/s",
                "Minstr/s", "");

    std::vector<Row> rows;
    double logSum = 0.0;
    for (const Workload *w : workloads) {
        Row row;
        row.name = w->name;
        row.interpSec = 1e300;
        row.decodedSec = 1e300;
        RunResult interp, decoded;
        for (unsigned rep = 0; rep < repeat; ++rep) {
            interp = timedRun(*w, /*decoded=*/false);
            decoded = timedRun(*w, /*decoded=*/true);
            checkEquivalent(w->name, interp, decoded);
            row.interpSec = std::min(row.interpSec, interp.seconds);
            row.decodedSec = std::min(row.decodedSec, decoded.seconds);
        }
        row.insts = interp.insts;
        row.blocks = decoded.stats.blocksDecoded;
        row.superblocks = decoded.stats.superblocksChained;
        row.hitRate = decoded.stats.hitRate();
        logSum += std::log(row.speedup());
        std::printf("%-24s %12llu %10.1f %10.1f %7.2fx\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.insts),
                    row.interpMips(), row.decodedMips(),
                    row.speedup());
        rows.push_back(row);
    }

    const double geomean =
        rows.empty() ? 1.0 : std::exp(logSum / rows.size());
    std::printf("\ngeomean speedup: %.2fx (all outputs bit-exact)\n",
                geomean);
    writeJson(out, suite, repeat, rows, geomean);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
