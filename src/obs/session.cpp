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

ObsOptions
parseObsArgs(int argc, char **argv)
{
    ObsOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(prefix.size());
            if (arg == flag && i + 1 < argc)
                return argv[++i];
            return "";
        };
        if (arg == "--trace-out" ||
            arg.rfind("--trace-out=", 0) == 0) {
            opts.traceOut = value("--trace-out");
            if (opts.traceOut.empty())
                fatal("--trace-out expects a file path");
        } else if (arg == "--trace-sample" ||
                   arg.rfind("--trace-sample=", 0) == 0) {
            opts.traceSampleCycles =
                parseUnsignedFlag("--trace-sample", value("--trace-sample"), 1);
        } else if (arg == "--metrics-json" ||
                   arg.rfind("--metrics-json=", 0) == 0) {
            opts.metricsJson = value("--metrics-json");
            if (opts.metricsJson.empty())
                fatal("--metrics-json expects a file path");
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg.rfind("--progress=", 0) == 0) {
            opts.progress = true;
            opts.progressPath =
                arg.substr(std::string("--progress=").size());
            if (opts.progressPath.empty())
                fatal("--progress= expects a file path");
        } else if (arg == "--profile-hot") {
            opts.profileHot = 20;
        } else if (arg.rfind("--profile-hot=", 0) == 0) {
            opts.profileHot = static_cast<unsigned>(parseUnsignedFlag(
                "--profile-hot=",
                arg.substr(std::string("--profile-hot=").size()), 1,
                std::numeric_limits<unsigned>::max()));
        } else if (arg == "--pipetrace") {
            opts.pipetrace = true;
        } else if (arg.rfind("--pipetrace=", 0) == 0) {
            opts.pipetrace = true;
            opts.pipetracePath =
                arg.substr(std::string("--pipetrace=").size());
            if (opts.pipetracePath.empty())
                fatal("--pipetrace= expects a file path");
        }
    }
    if (opts.traceSampleCycles && opts.traceOut.empty())
        fatal("--trace-sample requires --trace-out");
    return opts;
}

bool
isObsFlag(const std::string &arg, bool *takes_value)
{
    *takes_value = false;
    if (arg == "--trace-out" || arg == "--trace-sample" ||
        arg == "--metrics-json") {
        *takes_value = true;
        return true;
    }
    return arg == "--progress" || arg == "--profile-hot" ||
           arg == "--pipetrace" ||
           arg.rfind("--trace-out=", 0) == 0 ||
           arg.rfind("--trace-sample=", 0) == 0 ||
           arg.rfind("--metrics-json=", 0) == 0 ||
           arg.rfind("--progress=", 0) == 0 ||
           arg.rfind("--profile-hot=", 0) == 0 ||
           arg.rfind("--pipetrace=", 0) == 0;
}

Session::Session(const ObsOptions &opts) : opts_(opts)
{
    if (!opts_.traceOut.empty()) {
        Tracer::instance().setCycleSampleInterval(
            opts_.traceSampleCycles);
        Tracer::instance().start();
        Tracer::instance().threadName("main");
    }
    if (!opts_.metricsJson.empty())
        PhaseStats::instance().enable();
    if (opts_.progress) {
        std::FILE *sink = stderr;
        if (!opts_.progressPath.empty()) {
            progressFile_ =
                std::fopen(opts_.progressPath.c_str(), "w");
            if (!progressFile_)
                fatal("--progress: cannot write '%s'",
                      opts_.progressPath.c_str());
            sink = progressFile_;
        }
        ProgressMeter::instance().enable(sink);
    }
    if (opts_.profileHot > 0)
        HotspotProfile::setTopN(opts_.profileHot);
    if (opts_.pipetrace) {
        std::FILE *sink = stderr;
        if (!opts_.pipetracePath.empty()) {
            pipetraceFile_ =
                std::fopen(opts_.pipetracePath.c_str(), "w");
            if (!pipetraceFile_)
                fatal("--pipetrace: cannot write '%s'",
                      opts_.pipetracePath.c_str());
            sink = pipetraceFile_;
        }
        PipeTraceSink::instance().enable(sink);
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
