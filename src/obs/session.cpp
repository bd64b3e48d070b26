#include "obs/session.hpp"

#include "common/log.hpp"
#include "common/parse.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "trace/pipetrace.hpp"

namespace reno::obs
{

namespace
{

/** An optional "=FILE" sink flag: @p *sink is the path, "" = stderr. */
void
addSinkFlag(FlagTable &table, const char *name, const char *help,
            std::optional<std::string> *sink)
{
    table.optionalValue(
        name, "FILE", help,
        [name, sink](const FlagTable::OptionalValue &v) {
            if (v && v->empty())
                fatal("%s= expects a file path", name);
            *sink = v.value_or("");
        });
}

/** The file behind an optional "=FILE" sink flag, opened for writing;
 *  nullptr when @p path is "" (the sink is stderr). */
std::FILE *
openSink(const char *flag, const std::string &path)
{
    if (path.empty())
        return nullptr;
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        fatal("%s: cannot write '%s'", flag, path.c_str());
    return file;
}

} // namespace

void
addObsFlags(FlagTable &table, ObsOptions *opts)
{
    table.section("observability (off by default; results are "
                  "byte-identical either way)");
    table.file("--trace-out",
               "record a Chrome trace-event / Perfetto JSON of the run "
               "(open at ui.perfetto.dev)",
               &opts->traceOut);
    table.number("--trace-sample", "N",
                 "with --trace-out, also sample pipeline counters every "
                 "N simulated cycles",
                 &opts->traceSampleCycles, 1);
    table.file("--metrics-json",
               "write engine metrics (job latency, queue wait, pool "
               "utilization, cache hit ratio, per-phase seconds and "
               "Minstr/s, emulator block-cache counters)",
               &opts->metricsJson);
    addSinkFlag(table, "--progress",
                "stream NDJSON progress heartbeats (default sink: "
                "stderr)",
                &opts->progress);
}

void
addFullRunObsFlags(FlagTable &table, ObsOptions *opts)
{
    table.optionalValue(
        "--profile-hot", "N", "per-PC hotspot profiling, top N (default 20)",
        [opts](const FlagTable::OptionalValue &v) {
            opts->profileHot =
                v ? static_cast<unsigned>(parseUnsignedFlag(
                        "--profile-hot=", *v, 1,
                        std::numeric_limits<unsigned>::max()))
                  : 20;
        });
    addSinkFlag(table, "--pipetrace",
                "retired-instruction pipeline diagrams (default sink: "
                "stderr)",
                &opts->pipetrace);
}

Session::Session(const ObsOptions &opts) : opts_(opts)
{
    if (opts_.traceSampleCycles && opts_.traceOut.empty())
        fatal("--trace-sample requires --trace-out");
    if (!opts_.traceOut.empty()) {
        Tracer::instance().setCycleSampleInterval(
            opts_.traceSampleCycles);
        Tracer::instance().start();
        Tracer::instance().threadName("main");
    }
    if (!opts_.metricsJson.empty())
        PhaseStats::instance().enable();
    if (opts_.progress) {
        progressFile_ = openSink("--progress", *opts_.progress);
        ProgressMeter::instance().enable(progressFile_ ? progressFile_
                                                       : stderr);
    }
    if (opts_.profileHot > 0)
        HotspotProfile::setTopN(opts_.profileHot);
    if (opts_.pipetrace) {
        pipetraceFile_ = openSink("--pipetrace", *opts_.pipetrace);
        PipeTraceSink::instance().enable(pipetraceFile_ ? pipetraceFile_
                                                        : stderr);
    }
}

Session::~Session()
{
    if (opts_.pipetrace) {
        PipeTraceSink::instance().disable();
        if (pipetraceFile_)
            std::fclose(pipetraceFile_);
    }
    if (opts_.profileHot > 0)
        HotspotProfile::setTopN(0);
    if (opts_.progress) {
        ProgressMeter::instance().finish();
        if (progressFile_)
            std::fclose(progressFile_);
    }
    if (!opts_.metricsJson.empty()) {
        // Fold the phase totals into gauges so one JSON document
        // carries both engine metrics and the phase breakdown.
        auto &registry = MetricsRegistry::instance();
        for (const auto &[phase, totals] :
             PhaseStats::instance().snapshot()) {
            registry.gauge(strprintf("phase.%s.seconds",
                                     phase.c_str()))
                .set(static_cast<double>(totals.micros) / 1e6);
            registry.gauge(strprintf("phase.%s.minstr_per_s",
                                     phase.c_str()))
                .set(totals.instsPerSec() / 1e6);
        }
        registry.writeJson(opts_.metricsJson);
    }
    if (!opts_.traceOut.empty()) {
        Tracer::instance().stop();
        Tracer::instance().writeJson(opts_.traceOut);
        Tracer::instance().clear();
        Tracer::instance().setCycleSampleInterval(0);
    }
}

} // namespace reno::obs
