/**
 * @file
 * Process-wide structured event tracer emitting Chrome trace-event /
 * Perfetto-compatible JSON ({"traceEvents": [...]}; load the file at
 * ui.perfetto.dev or chrome://tracing).
 *
 * The tracer records begin/end span pairs ("B"/"E") per thread,
 * instant events ("i"), counter time-series ("C") and thread-name
 * metadata ("M"). It is off by default: every recording call is
 * guarded by an inlined relaxed-atomic enabled() check, so a disabled
 * tracer costs one predictable branch -- nothing on the simulated
 * path ever changes, the tracer observes wall-clock structure only.
 *
 * Timestamps come from a Clock (common/clock.hpp): the steady clock
 * in production, a ManualClock in tests, so trace tests assert exact
 * deterministic timestamps.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace reno::obs
{

/** One recorded event (Chrome trace-event model). */
struct TraceEvent {
    enum class Phase : char {
        Begin = 'B',
        End = 'E',
        Counter = 'C',
        Instant = 'i',
        Meta = 'M',
    };
    Phase ph = Phase::Instant;
    std::uint32_t tid = 0;
    std::uint64_t ts = 0;       //!< microseconds
    std::string name;
    std::string cat;
    std::string args;  //!< pre-rendered JSON object body (no braces)
};

/** Fluent builder for an event's "args" JSON object body. */
class TraceArgs
{
  public:
    TraceArgs &add(const char *key, const std::string &value);
    TraceArgs &add(const char *key, const char *value);
    TraceArgs &add(const char *key, std::uint64_t value);
    TraceArgs &add(const char *key, double value);

    std::string str() const { return body_; }

  private:
    std::string body_;
};

/** The process-wide event tracer. */
class Tracer
{
  public:
    static Tracer &instance();

    /** Disabled-path check; inlined, one relaxed atomic load. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Start recording. @p clock defaults to the steady clock. */
    void start(Clock *clock = nullptr);

    /** Stop recording (events stay buffered until clear()). */
    void stop();

    void begin(std::string name, std::string cat,
               std::string args = "");
    void end(std::string name, std::string cat);
    void instant(std::string name, std::string cat,
                 std::string args = "");
    /** Counter sample: @p args carries the series values. */
    void counter(std::string name, std::string args);
    /** Name the calling thread in trace viewers. */
    void threadName(std::string name);

    /**
     * Periodic counter sampling: when non-zero (and the tracer is
     * enabled), System::runUntilRetired emits every core's `cycle`
     * and SimResult counters, under their registry names, as a trace
     * counter series ("core<i>.stats") every N simulated cycles.
     */
    std::uint64_t
    cycleSampleInterval() const
    {
        return cycleInterval_.load(std::memory_order_relaxed);
    }
    void
    setCycleSampleInterval(std::uint64_t cycles)
    {
        cycleInterval_.store(cycles, std::memory_order_relaxed);
    }

    /** Current time on the tracer's clock. */
    std::uint64_t nowMicros();

    /** Small stable id of the calling thread (assigned on first use). */
    static std::uint32_t currentThreadId();

    std::size_t eventCount() const;
    std::vector<TraceEvent> events() const;

    /** Render the whole buffer as Chrome trace-event JSON. */
    std::string renderJson() const;

    /** renderJson() to a file; false (with a warning) on I/O failure. */
    bool writeJson(const std::string &path) const;

    /** Drop every buffered event. */
    void clear();

  private:
    Tracer() = default;

    void record(TraceEvent event, bool force = false);

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> cycleInterval_{0};
    mutable std::mutex mu_;
    Clock *clock_ = nullptr;
    std::vector<TraceEvent> events_;
};

/**
 * RAII begin/end span. Captures enabled() once at construction, so a
 * span opened while tracing is on always closes its "B" event.
 */
class TraceSpan
{
  public:
    TraceSpan(std::string name, std::string cat,
              std::string args = "")
        : name_(std::move(name)), cat_(std::move(cat))
    {
        if (Tracer::instance().enabled()) {
            active_ = true;
            Tracer::instance().begin(name_, cat_, std::move(args));
        }
    }

    ~TraceSpan()
    {
        if (active_)
            Tracer::instance().end(std::move(name_), std::move(cat_));
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    std::string name_;
    std::string cat_;
    bool active_ = false;
};

} // namespace reno::obs
