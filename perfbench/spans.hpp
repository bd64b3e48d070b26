/**
 * @file
 * In-memory span recorder for the traced benchmark run. A span is a
 * (name, start, end, parent) record taken around one call into a
 * simulator layer from outside the library; nothing inside src/ is
 * instrumented. The layer of a span is its name up to the first '.'
 * ("core.runWorkload" belongs to "core"). Spans stay in memory and are
 * written as Chrome trace-event JSON when the run ends.
 */
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

class SpanRecorder
{
  public:
    struct Span {
        std::string name;
        double start = 0.0;  //!< seconds since the recorder was made
        double end = 0.0;
        int parent = -1;     //!< index of the enclosing span, -1 = root
    };

    /** Spans are recorded only while enabled. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its index, or -1 while disabled. */
    int
    begin(std::string name)
    {
        if (!enabled_)
            return -1;
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({std::move(name), now(), 0.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    /** Close span @p id (a no-op for -1). Spans close innermost
     *  first, which the RAII Scope below guarantees. */
    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[id].end = now();
        open_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-layer self time: each span's duration minus the part its
     *  child spans cover, summed by layer. */
    std::map<std::string, double>
    selfSecondsByLayer() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out[layerOf(s.name)] += (s.end - s.start) - child[i];
        }
        return out;
    }

    /** Write every span as a Chrome trace-event "X" (complete) event;
     *  false when @p path cannot be written. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"name\": \"%s\", \"cat\": \"%s\", "
                         "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                         "\"pid\": 1, \"tid\": 1, \"args\": {\"id\": "
                         "%zu, \"parent\": %d}}%s\n",
                         s.name.c_str(), layerOf(s.name).c_str(),
                         s.start * 1e6, (s.end - s.start) * 1e6, i,
                         s.parent, i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
        return std::fclose(f) == 0;
    }

    static std::string
    layerOf(const std::string &name)
    {
        return name.substr(0, name.find('.'));
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, std::string name)
        : rec_(rec), id_(rec.begin(std::move(name)))
    {
    }
    ~Scope() { rec_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace perfbench
