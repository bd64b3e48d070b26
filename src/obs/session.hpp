/**
 * @file
 * CLI front door for the observability layer. A driver parses the
 * standard obs flags out of argv (parseObsArgs / isObsFlag, the
 * campaign-engine idiom) and constructs one obs::Session for the
 * lifetime of the run:
 *
 *   --trace-out FILE     record a Chrome trace-event / Perfetto JSON
 *   --trace-sample N     + sample pipeline counters every N cycles
 *   --metrics-json FILE  write the metrics registry as JSON at exit
 *   --progress[=FILE]    stream NDJSON heartbeats (default: stderr)
 *   --profile-hot[=N]    per-PC hotspot profiling, top N (default 20)
 *   --pipetrace[=FILE]   retired-instruction pipeline diagrams
 *                        (default: stderr)
 *
 * Construction enables the requested facilities; destruction flushes
 * them (final progress heartbeat, phase gauges folded into the
 * metrics registry, JSON files written). Everything defaults off, and
 * none of it perturbs simulated results: job digests, caching and
 * report output are byte-identical with the session active or not.
 */
#pragma once

#include <cstdio>
#include <string>

namespace reno::obs
{

/** Parsed obs flags (see file doc for the flag set). */
struct ObsOptions {
    std::string traceOut;     //!< --trace-out FILE ("" = off)
    std::uint64_t traceSampleCycles = 0;  //!< --trace-sample N
    std::string metricsJson;  //!< --metrics-json FILE ("" = off)
    bool progress = false;    //!< --progress[=FILE]
    std::string progressPath; //!< "" = stderr
    unsigned profileHot = 0;  //!< --profile-hot[=N] top-N (0 = off)
    bool pipetrace = false;   //!< --pipetrace[=FILE]
    std::string pipetracePath;  //!< "" = stderr
};

/** Parse the obs flags out of argv; unrecognized args are ignored. */
ObsOptions parseObsArgs(int argc, char **argv);

/**
 * True if @p arg is an obs flag, so drivers with strict argument
 * parsing can skip them. Sets @p *takes_value when the flag consumes
 * the following argv entry (detached form).
 */
bool isObsFlag(const std::string &arg, bool *takes_value);

/** RAII activation of the facilities requested in ObsOptions. */
class Session
{
  public:
    explicit Session(const ObsOptions &opts);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

  private:
    ObsOptions opts_;
    std::FILE *progressFile_ = nullptr;  //!< owned when non-null
    std::FILE *pipetraceFile_ = nullptr;  //!< owned when non-null
};

} // namespace reno::obs
