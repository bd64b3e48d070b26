#include "sweep/job.hpp"

#include "common/digest.hpp"

namespace reno::sweep
{

std::string
serializeCoreParams(const CoreParams &params)
{
    std::string out;
    out.reserve(2048);
    visitParams(params, [&out](std::string_view key, const auto &v) {
        using T = std::remove_cvref_t<decltype(v)>;
        out.append(key);
        out += ' ';
        if constexpr (std::is_same_v<T, PrefetchKind>)
            out += prefetchKindName(v);
        else if constexpr (std::is_same_v<T, DirPredKind>)
            out += dirPredKindName(v);
        else
            out += std::to_string(paramValue(v));
        out += '\n';
    });
    return out;
}

std::uint64_t
jobDigest(const Job &job)
{
    Fnv64 h;
    h.update("reno-job-v1");
    h.update(std::string(job.workload->source));
    h.update(job.workload->seed);
    h.update(serializeCoreParams(job.config.params));
    h.update(job.wantCpa);
    // Digested only when sampled, so pre-sampling cache entries for
    // full runs keep their keys.
    if (job.sampled()) {
        h.update("sample-v1");
        h.update(job.window.startInst);
        h.update(job.window.warmupInsts);
        h.update(job.window.measureInsts);
    }
    return h.value();
}

} // namespace reno::sweep
