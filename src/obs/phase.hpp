/**
 * @file
 * Wall-clock phase accounting for sampled and full simulation:
 * a PhaseSpan brackets one leaf phase of work -- fast-forward
 * (functional warming), checkpoint restore/capture, detailed warmup,
 * a measured window, a full detailed run -- and, per enabled
 * facility,
 *
 *   - emits a begin/end span to the event tracer (obs/trace.hpp), so
 *     traces show where inside each job the time went, and
 *   - accumulates elapsed microseconds + executed instructions into
 *     the process-wide PhaseStats totals, which back the per-phase
 *     `phase.<name>.seconds` / `phase.<name>.minstr_per_s` gauges of
 *     --metrics-json.
 *
 * Phases are leaves by convention: no PhaseSpan nests inside another,
 * so the per-phase totals are disjoint and sum to (roughly) the
 * simulation wall clock. Both facilities default off; a disabled
 * PhaseSpan costs two relaxed atomic loads.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "obs/trace.hpp"

namespace reno::obs
{

/** Aggregated wall-clock totals of one phase. */
struct PhaseTotals {
    std::uint64_t micros = 0;
    std::uint64_t insts = 0;
    std::uint64_t count = 0;  //!< spans accumulated

    double
    instsPerSec() const
    {
        return micros ? static_cast<double>(insts) /
                            (static_cast<double>(micros) / 1e6)
                      : 0.0;
    }
};

/** Process-wide per-phase wall-clock totals. */
class PhaseStats
{
  public:
    static PhaseStats &instance();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Start accumulating. @p clock defaults to the steady clock. */
    void enable(Clock *clock = nullptr);
    void disable();

    void add(const std::string &phase, std::uint64_t micros,
             std::uint64_t insts);

    /** (phase, totals) pairs, sorted by phase name. */
    std::vector<std::pair<std::string, PhaseTotals>> snapshot() const;

    void reset();

    Clock &clock();

  private:
    PhaseStats() = default;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    Clock *clock_ = nullptr;
    std::vector<std::pair<std::string, PhaseTotals>> totals_;
};

/** RAII leaf-phase span: traces and/or accumulates (see file doc). */
class PhaseSpan
{
  public:
    explicit PhaseSpan(const char *name, std::string trace_args = "")
        : name_(name)
    {
        trace_ = Tracer::instance().enabled();
        accumulate_ = PhaseStats::instance().enabled();
        if (trace_)
            Tracer::instance().begin(name_, "phase",
                                     std::move(trace_args));
        if (accumulate_)
            t0_ = PhaseStats::instance().clock().nowMicros();
    }

    ~PhaseSpan()
    {
        if (trace_)
            Tracer::instance().end(name_, "phase");
        if (accumulate_) {
            const std::uint64_t t1 =
                PhaseStats::instance().clock().nowMicros();
            PhaseStats::instance().add(name_, t1 - t0_, insts_);
        }
    }

    PhaseSpan(const PhaseSpan &) = delete;
    PhaseSpan &operator=(const PhaseSpan &) = delete;

    /** Attribute @p n executed instructions to this phase. */
    void setInsts(std::uint64_t n) { insts_ = n; }

  private:
    std::string name_;
    std::uint64_t t0_ = 0;
    std::uint64_t insts_ = 0;
    bool trace_ = false;
    bool accumulate_ = false;
};

} // namespace reno::obs
