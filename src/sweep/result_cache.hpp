/**
 * @file
 * Content-addressed simulation result cache. Results are keyed by the
 * job content digest (kernel source + seed + serialized machine
 * configuration + CPA request), not by workload/config *names*, so a
 * renamed configuration with identical parameters still hits and two
 * same-named configurations with different parameters never collide.
 *
 * The in-memory map is always active; when constructed with a
 * directory, every stored result is also persisted as one small text
 * file per digest (<digest>.result, common/textfile.hpp), and lookups
 * fall back to disk -- a warm directory lets a repeated figure
 * campaign skip simulation entirely. A malformed file is warned
 * about, ignored and recomputed.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/textfile.hpp"
#include "sweep/job.hpp"

namespace reno::sweep
{

/** Thread-safe content-addressed cache of JobResults. */
class ResultCache
{
  public:
    /** @param dir  persistence directory; empty = in-memory only.
     *  Created on first store if missing. */
    explicit ResultCache(std::string dir = "");

    /**
     * Look up @p digest: memory first, then the persistence directory.
     * A disk hit is promoted into memory. Returns true and fills
     * @p out on a hit.
     */
    bool lookup(std::uint64_t digest, JobResult *out);

    /** Insert a result (memory, plus disk when persistent). */
    void store(std::uint64_t digest, const JobResult &result);

    // --- statistics ---------------------------------------------------
    std::uint64_t memoryHits() const { return memoryHits_; }
    std::uint64_t diskHits() const { return diskHits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t stores() const { return stores_; }
    /** lookup() hits of either kind over total lookups; 0 when idle. */
    double hitRatio() const;
    std::size_t size() const;

    /** Serialize a result to the persistence text format. */
    static std::string encode(const JobResult &result);

    /** Parse the persistence format; returns false on any mismatch
     *  (naming it in @p why when non-null). */
    static bool decode(const std::string &text, JobResult *out,
                       std::string *why = nullptr);

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, JobResult> mem_;
    TextFileStore files_;
    std::uint64_t memoryHits_ = 0;
    std::uint64_t diskHits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t stores_ = 0;
};

} // namespace reno::sweep
