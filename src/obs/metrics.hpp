/**
 * @file
 * Process-wide metrics registry: named counters (monotonic),
 * gauges (last-written value) and histograms (full-value reservoir
 * with count/min/mean/p50/p95/p99/max), serialized as one JSON document
 * (reno-sweep / reno-sample --metrics-json).
 *
 * The registry complements the SimResult field registry
 * (uarch/sim_result.hpp): SimResult counts *simulated* events,
 * deterministically; MetricsRegistry records *host-side* behavior of
 * the campaign engine -- job latency, queue wait, pool utilization,
 * cache hit ratio -- which is wall-clock-dependent and therefore kept
 * strictly out of every deterministic report. No simulated count is
 * published here.
 *
 * Handed-out metric references are stable for the registry's
 * lifetime (deque storage); recording is a relaxed atomic add
 * (counter/gauge) or a short mutex hold (histogram).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace reno::obs
{

/** Monotonic event counter. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Full-value reservoir with rank-based percentiles. */
class Histogram
{
  public:
    void record(double v);

    std::uint64_t count() const;
    double min() const;
    double max() const;
    double mean() const;
    /** Nearest-rank percentile, @p p in (0, 100]. 0 when empty. */
    double percentile(double p) const;

  private:
    mutable std::mutex mu_;
    std::vector<double> values_;
};

/** The process-wide named-metric registry. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Register (or re-fetch) a metric. A name is bound to one kind;
     *  re-requesting it as another kind is a fatal() error. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name);

    /** One JSON document: {"counters": {...}, "gauges": {...},
     *  "histograms": {...}}, names sorted, trailing newline. */
    std::string renderJson() const;

    /** renderJson() to a file; false (with a warning) on failure. */
    bool writeJson(const std::string &path) const;

    /** Drop every metric (tests). Invalidates handed-out refs. */
    void reset();

  private:
    MetricsRegistry() = default;

    mutable std::mutex mu_;
    std::deque<Counter> counters_;
    std::deque<Gauge> gauges_;
    std::deque<Histogram> histograms_;
    std::map<std::string, Counter *, std::less<>> counterIndex_;
    std::map<std::string, Gauge *, std::less<>> gaugeIndex_;
    std::map<std::string, Histogram *, std::less<>> histogramIndex_;
};

} // namespace reno::obs
