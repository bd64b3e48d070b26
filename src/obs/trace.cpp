#include "obs/trace.hpp"

#include "common/log.hpp"
#include "common/report.hpp"
#include "common/textfile.hpp"

namespace reno::obs
{

TraceArgs &
TraceArgs::add(const char *key, const std::string &value)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += strprintf("\"%s\": \"%s\"", key,
                       jsonEscape(value).c_str());
    return *this;
}

TraceArgs &
TraceArgs::add(const char *key, const char *value)
{
    return add(key, std::string(value));
}

TraceArgs &
TraceArgs::add(const char *key, std::uint64_t value)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += strprintf("\"%s\": %llu", key,
                       static_cast<unsigned long long>(value));
    return *this;
}

TraceArgs &
TraceArgs::add(const char *key, double value)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += strprintf("\"%s\": %.6f", key, value);
    return *this;
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::start(Clock *clock)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        clock_ = clock ? clock : &steadyClock();
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::stop()
{
    enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t
Tracer::nowMicros()
{
    Clock *clock;
    {
        std::lock_guard<std::mutex> lock(mu_);
        clock = clock_;
    }
    return clock ? clock->nowMicros() : steadyClock().nowMicros();
}

std::uint32_t
Tracer::currentThreadId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
Tracer::record(TraceEvent event, bool force)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!force && !enabled_.load(std::memory_order_relaxed))
        return;
    events_.push_back(std::move(event));
}

void
Tracer::begin(std::string name, std::string cat, std::string args)
{
    TraceEvent e;
    e.ph = TraceEvent::Phase::Begin;
    e.tid = currentThreadId();
    e.ts = nowMicros();
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.args = std::move(args);
    record(std::move(e));
}

void
Tracer::end(std::string name, std::string cat)
{
    TraceEvent e;
    e.ph = TraceEvent::Phase::End;
    e.tid = currentThreadId();
    e.ts = nowMicros();
    e.name = std::move(name);
    e.cat = std::move(cat);
    // Force: a span that recorded its "B" must record its "E" even if
    // the tracer was stopped mid-span, so nesting stays well-formed.
    record(std::move(e), true);
}

void
Tracer::instant(std::string name, std::string cat, std::string args)
{
    TraceEvent e;
    e.ph = TraceEvent::Phase::Instant;
    e.tid = currentThreadId();
    e.ts = nowMicros();
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.args = std::move(args);
    record(std::move(e));
}

void
Tracer::counter(std::string name, std::string args)
{
    TraceEvent e;
    e.ph = TraceEvent::Phase::Counter;
    e.tid = currentThreadId();
    e.ts = nowMicros();
    e.name = std::move(name);
    e.cat = "counter";
    e.args = std::move(args);
    record(std::move(e));
}

void
Tracer::threadName(std::string name)
{
    TraceEvent e;
    e.ph = TraceEvent::Phase::Meta;
    e.tid = currentThreadId();
    e.ts = 0;
    e.name = "thread_name";
    e.args = TraceArgs().add("name", name).str();
    record(std::move(e));
}

std::size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

std::string
Tracer::renderJson() const
{
    const std::vector<TraceEvent> events = this->events();
    std::string out = "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &e = events[i];
        out += strprintf(
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
            "\"pid\": 1, \"tid\": %u, \"ts\": %llu",
            jsonEscape(e.name).c_str(), jsonEscape(e.cat).c_str(),
            static_cast<char>(e.ph), e.tid,
            static_cast<unsigned long long>(e.ts));
        if (e.ph == TraceEvent::Phase::Instant)
            out += ", \"s\": \"t\"";
        if (!e.args.empty())
            out += ", \"args\": {" + e.args + "}";
        out += "}";
        if (i + 1 < events.size())
            out += ",";
        out += "\n";
    }
    out += "], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    return writeTextFile(path, renderJson());
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
}

} // namespace reno::obs
