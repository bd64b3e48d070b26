#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/report.hpp"
#include "common/textfile.hpp"

namespace reno::obs
{

void
Histogram::record(double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return values_.size();
}

double
Histogram::min() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return values_.empty()
               ? 0.0
               : *std::min_element(values_.begin(), values_.end());
}

double
Histogram::max() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return values_.empty()
               ? 0.0
               : *std::max_element(values_.begin(), values_.end());
}

double
Histogram::mean() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (values_.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values_)
        sum += v;
    return sum / static_cast<double>(values_.size());
}

double
Histogram::percentile(double p) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t rank = static_cast<std::size_t>(std::ceil(
        p / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::min(rank > 0 ? rank - 1 : 0,
                           sorted.size() - 1)];
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

namespace
{

template <typename Index>
void
checkNameFree(const char *kind, std::string_view name,
              const Index &index)
{
    if (index.find(name) != index.end())
        fatal("metric '%s' already registered as a %s",
              std::string(name).c_str(), kind);
}

} // namespace

Counter &
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counterIndex_.find(name);
    if (it != counterIndex_.end())
        return *it->second;
    checkNameFree("gauge", name, gaugeIndex_);
    checkNameFree("histogram", name, histogramIndex_);
    counters_.emplace_back();
    counterIndex_.emplace(std::string(name), &counters_.back());
    return counters_.back();
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gaugeIndex_.find(name);
    if (it != gaugeIndex_.end())
        return *it->second;
    checkNameFree("counter", name, counterIndex_);
    checkNameFree("histogram", name, histogramIndex_);
    gauges_.emplace_back();
    gaugeIndex_.emplace(std::string(name), &gauges_.back());
    return gauges_.back();
}

Histogram &
MetricsRegistry::histogram(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histogramIndex_.find(name);
    if (it != histogramIndex_.end())
        return *it->second;
    checkNameFree("counter", name, counterIndex_);
    checkNameFree("gauge", name, gaugeIndex_);
    histograms_.emplace_back();
    histogramIndex_.emplace(std::string(name), &histograms_.back());
    return histograms_.back();
}

std::string
MetricsRegistry::renderJson() const
{
    // Snapshot the indices under the lock, then read the metrics
    // through their own synchronization.
    std::vector<std::pair<std::string, const Counter *>> counters;
    std::vector<std::pair<std::string, const Gauge *>> gauges;
    std::vector<std::pair<std::string, const Histogram *>> histograms;
    {
        std::lock_guard<std::mutex> lock(mu_);
        counters.assign(counterIndex_.begin(), counterIndex_.end());
        gauges.assign(gaugeIndex_.begin(), gaugeIndex_.end());
        histograms.assign(histogramIndex_.begin(),
                          histogramIndex_.end());
    }

    std::string out = "{\n  \"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        out += strprintf(
            "%s\n    \"%s\": %llu", i ? "," : "",
            jsonEscape(counters[i].first).c_str(),
            static_cast<unsigned long long>(
                counters[i].second->value()));
    }
    out += counters.empty() ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        out += strprintf("%s\n    \"%s\": %.6f", i ? "," : "",
                         jsonEscape(gauges[i].first).c_str(),
                         gauges[i].second->value());
    }
    out += gauges.empty() ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        const Histogram &h = *histograms[i].second;
        out += strprintf(
            "%s\n    \"%s\": {\"count\": %llu, \"min\": %.6f, "
            "\"mean\": %.6f, \"p50\": %.6f, \"p95\": %.6f, "
            "\"p99\": %.6f, \"max\": %.6f}",
            i ? "," : "", jsonEscape(histograms[i].first).c_str(),
            static_cast<unsigned long long>(h.count()), h.min(),
            h.mean(), h.percentile(50.0), h.percentile(95.0),
            h.percentile(99.0), h.max());
    }
    out += histograms.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

bool
MetricsRegistry::writeJson(const std::string &path) const
{
    return writeTextFile(path, renderJson());
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    counterIndex_.clear();
    gaugeIndex_.clear();
    histogramIndex_.clear();
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

} // namespace reno::obs
