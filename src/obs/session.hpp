/**
 * @file
 * CLI front door for the observability layer. A driver registers the
 * obs flags into its flag table (addObsFlags, plus addFullRunObsFlags
 * when its jobs are full detailed runs) and constructs one
 * obs::Session from the parsed ObsOptions for the lifetime of the
 * run.
 *
 * Construction enables the requested facilities; destruction flushes
 * them (final progress heartbeat, phase gauges folded into the
 * metrics registry, JSON files written). Everything defaults off, and
 * none of it perturbs simulated results: job digests, caching and
 * report output are byte-identical with the session active or not.
 */
#pragma once

#include <cstdio>
#include <optional>
#include <string>

#include "common/cli.hpp"

namespace reno::obs
{

/** Parsed obs flags. */
struct ObsOptions {
    std::string traceOut;     //!< --trace-out FILE ("" = off)
    std::uint64_t traceSampleCycles = 0;  //!< --trace-sample N
    std::string metricsJson;  //!< --metrics-json FILE ("" = off)
    /** --progress[=FILE]: nullopt = off, "" = stderr. */
    std::optional<std::string> progress;
    unsigned profileHot = 0;  //!< --profile-hot[=N] top-N (0 = off)
    /** --pipetrace[=FILE]: nullopt = off, "" = stderr. */
    std::optional<std::string> pipetrace;
};

/** Register --trace-out, --trace-sample, --metrics-json and
 *  --progress into @p table, filling @p *opts. */
void addObsFlags(FlagTable &table, ObsOptions *opts);

/** Register --profile-hot and --pipetrace. Their hooks live in the
 *  full-run path (harness runWorkload), so only a driver whose jobs
 *  are full detailed runs takes them. */
void addFullRunObsFlags(FlagTable &table, ObsOptions *opts);

/** RAII activation of the facilities requested in ObsOptions;
 *  fatal() on --trace-sample without --trace-out. */
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
