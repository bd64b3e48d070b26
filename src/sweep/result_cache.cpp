#include "sweep/result_cache.hpp"

namespace reno::sweep
{

namespace
{

// The serialized SimResult fields and their file order come from the
// canonical registry in uarch/sim_result.hpp, whose order is frozen
// to this file format. v2 appended the per-memory-level counter
// block, v3 the branch-prediction breakdown, v4 the multi-core
// coherence + per-core block, v5 the per-core CPI stacks; older
// entries fail the tag check and are recomputed.
constexpr const char *FormatTag = "reno-result v5";
constexpr const char *Ext = ".result";

} // namespace

ResultCache::ResultCache(std::string dir)
    : files_(std::move(dir), "result cache")
{
}

bool
ResultCache::lookup(std::uint64_t digest, JobResult *out)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto it = mem_.find(digest); it != mem_.end()) {
            *out = it->second;
            ++memoryHits_;
            return true;
        }
    }
    JobResult r;
    const bool hit =
        files_.load(digest, Ext,
                    [&r](const std::string &text, std::string *why) {
                        return decode(text, &r, why);
                    });
    std::lock_guard<std::mutex> lock(mu_);
    if (!hit) {
        ++misses_;
        return false;
    }
    *out = r;
    mem_.emplace(digest, std::move(r));
    ++diskHits_;
    return true;
}

void
ResultCache::store(std::uint64_t digest, const JobResult &result)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        mem_[digest] = result;
        ++stores_;
    }
    if (files_.enabled())
        files_.store(digest, Ext, encode(result));
}

double
ResultCache::hitRatio() const
{
    const std::uint64_t hits = memoryHits_ + diskHits_;
    const std::uint64_t lookups = hits + misses_;
    return lookups ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return mem_.size();
}

std::string
ResultCache::encode(const JobResult &result)
{
    std::string out;
    putLine(out, FormatTag);
    for (const SimStatField &f : simResultFields())
        putLine(out, f.name, statValue(result.sim, f));
    putLine(out, "hasCpa", result.hasCpa);
    for (unsigned b = 0; result.hasCpa && b < NumCpBuckets; ++b)
        putLine(out, "cpa" + std::to_string(b), result.cpaWeights[b]);
    return out;
}

bool
ResultCache::decode(const std::string &text, JobResult *out,
                    std::string *why)
{
    LineReader in(text);
    JobResult r;
    bool ok = in.expectLine(FormatTag);
    for (const SimStatField &f : simResultFields())
        ok = ok && in.next(f.name, statRef(r.sim, f));
    ok = ok && in.next("hasCpa", r.hasCpa);
    for (unsigned b = 0; ok && r.hasCpa && b < NumCpBuckets; ++b)
        ok = in.next("cpa" + std::to_string(b), r.cpaWeights[b]);
    if (!ok || !in.finish()) {
        if (why)
            *why = in.error();
        return false;
    }
    *out = r;
    return true;
}

} // namespace reno::sweep
