#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace reno
{

Cache::Cache(const CacheParams &params, MemLevel *next)
    : params_(params), next_(next)
{
    if (!next_)
        fatal("cache %s: no next level", params_.name.c_str());
    if (params_.assoc == 0)
        fatal("cache %s: associativity must be positive",
              params_.name.c_str());
    if (params_.blockBytes == 0 ||
        (params_.blockBytes & (params_.blockBytes - 1)) != 0)
        fatal("cache %s: block size must be a positive power of two "
              "(got %u)",
              params_.name.c_str(), params_.blockBytes);
    if (params_.numMshrs == 0)
        fatal("cache %s: MSHR count must be positive",
              params_.name.c_str());
    numSets_ = params_.sizeBytes / (params_.blockBytes * params_.assoc);
    if (numSets_ == 0)
        fatal("cache %s: size smaller than one set", params_.name.c_str());
    blockShift_ =
        static_cast<unsigned>(std::countr_zero(params_.blockBytes));
    setsPow2_ = (numSets_ & (numSets_ - 1)) == 0;
    lines_.resize(static_cast<size_t>(numSets_) * params_.assoc);
    prefetcher_ =
        makePrefetcher(params_.prefetch, params_.blockBytes,
                       params_.name);
}

const Cycle *
Cache::FillTable::find(Addr block) const
{
    for (const Entry &e : entries_) {
        if (e.block == block)
            return &e.ready;
    }
    return nullptr;
}

void
Cache::FillTable::set(Addr block, Cycle ready)
{
    for (Entry &e : entries_) {
        if (e.block != block)
            continue;
        // Rare (the line was evicted and missed again before its fill
        // landed): the old cycle may have been the minimum.
        e.ready = ready;
        earliest_ = InvalidCycle;
        for (const Entry &other : entries_)
            earliest_ = std::min(earliest_, other.ready);
        return;
    }
    entries_.push_back({block, ready});
    earliest_ = std::min(earliest_, ready);
}

void
Cache::FillTable::retireSlow(Cycle now)
{
    earliest_ = InvalidCycle;
    std::size_t kept = 0;
    for (const Entry &e : entries_) {
        if (e.ready <= now)
            continue;
        entries_[kept++] = e;
        earliest_ = std::min(earliest_, e.ready);
    }
    entries_.resize(kept);
}

Cache::Line *
Cache::findLine(Addr block)
{
    const unsigned set = setIndex(block);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[set * params_.assoc + w];
        if (line.valid && line.tag == block)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr block) const
{
    return const_cast<Cache *>(this)->findLine(block);
}

bool
Cache::probe(Addr addr) const
{
    return findLine(blockAddr(addr)) != nullptr;
}

void
Cache::fill(Addr block, Cycle now, bool dirty, bool prefetched)
{
    const unsigned set = setIndex(block);
    Line *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[set * params_.assoc + w];
        if (line.valid && line.tag == block) {
            line.dirty = line.dirty || dirty;  // merged fill
            return;
        }
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (victim->valid && victim->dirty) {
        ++writebacks_;
        if (params_.writebackTraffic)
            next_->access(victim->tag * params_.blockBytes, now,
                          MemAccessKind::Writeback);
    }
    if (victim->valid && evictionListener_)
        evictionListener_(victim->tag * params_.blockBytes,
                          victim->dirty);
    *victim = Line{true, dirty, prefetched, block, ++lruClock_};
}

void
Cache::maybePrefetch(Addr block, bool miss, Cycle now)
{
    if (!prefetcher_)
        return;
    prefetchBuf_.clear();
    prefetcher_->observe(block, miss, prefetchBuf_);
    for (const Addr cand : prefetchBuf_) {
        if (findLine(cand))
            continue;  // already resident
        // Prefetch fills ride their own queue, not a demand MSHR:
        // the issue decision depends only on the tag array, keeping
        // tags a pure function of the demand stream (the property
        // that functional warming and checkpoint chop/resume
        // identity rely on). The timing entry is recorded only while
        // the queue has room: untracked fills are merely
        // timing-optimistic, and the bound keeps the per-access
        // table scans O(numMshrs) instead of growing without limit
        // under cycle-0 functional warming, where no entry ever
        // retires.
        const Cycle done =
            next_->access(cand * params_.blockBytes,
                          now + params_.latency,
                          MemAccessKind::Prefetch);
        if (prefetchFills_.size() < 2 * params_.numMshrs)
            prefetchFills_.set(cand, done);
        fill(cand, now + params_.latency, false, true);
        ++prefetchIssued_;
    }
}

Cycle
Cache::access(Addr addr, Cycle now, MemAccessKind kind)
{
    const Addr block = blockAddr(addr);

    if (kind == MemAccessKind::Writeback) {
        // Victim drained from the level above: update in place when
        // present (no recency change -- a drain is not reuse), else
        // pass through without allocating.
        if (Line *line = findLine(block)) {
            line->dirty = true;
            return now + params_.latency;
        }
        return next_->access(addr, now, MemAccessKind::Writeback);
    }

    const bool demand = kind != MemAccessKind::Prefetch;

    // Retire MSHRs and prefetch fills whose fills have landed
    // (timing bookkeeping only; the tag array is updated eagerly at
    // miss time).
    mshrs_.retire(now);
    prefetchFills_.retire(now);

    if (Line *line = findLine(block)) {
        line->lruStamp = ++lruClock_;
        if (demand && line->prefetched) {
            ++prefetchUseful_;
            line->prefetched = false;
        }
        if (kind == MemAccessKind::Write)
            line->dirty = true;
        Cycle ready;
        // The block may still be in flight (a demand miss or a
        // prefetch fill): an access before the fill completes merges
        // into the outstanding request.
        if (const Cycle *fill = mshrs_.find(block)) {
            ++mshrMerges_;
            ready = *fill + params_.latency;
        } else if (const Cycle *pf = prefetchFills_.find(block)) {
            ++mshrMerges_;
            ready = *pf + params_.latency;
        } else {
            ++hits_;
            ready = now + params_.latency;
        }
        if (demand)
            maybePrefetch(block, false, now);
        return ready;
    }
    ++misses_;

    // All MSHRs busy: wait for the earliest one to retire first.
    Cycle start = now;
    if (mshrs_.size() >= params_.numMshrs) {
        const Cycle earliest = mshrs_.earliest();
        mshrs_.retire(earliest);
        start = std::max(start, earliest);
    }

    const Cycle fill_done =
        next_->access(block * params_.blockBytes,
                      start + params_.latency,
                      demand ? MemAccessKind::Read
                             : MemAccessKind::Prefetch);
    mshrs_.set(block, fill_done);
    // Eager tag fill: the line is installed (and a victim evicted) at
    // miss time; the MSHR entry carries the timing. The prefetched
    // flag marks only lines installed by THIS level's prefetcher
    // (maybePrefetch), so a pass-through Prefetch fill from an upper
    // level never credits this level's prefetchUseful counter.
    fill(block, start + params_.latency,
         kind == MemAccessKind::Write, false);
    if (demand)
        maybePrefetch(block, true, now);
    return fill_done + params_.latency;
}

Cache::CohResult
Cache::invalidateBlock(Addr addr)
{
    Line *line = findLine(blockAddr(addr));
    if (!line)
        return {};
    const CohResult result{true, line->dirty};
    *line = Line{};
    return result;
}

Cache::CohResult
Cache::cleanBlock(Addr addr)
{
    Line *line = findLine(blockAddr(addr));
    if (!line)
        return {};
    const CohResult result{true, line->dirty};
    line->dirty = false;
    return result;
}

void
Cache::flush()
{
    for (auto &line : lines_) {
        if (line.valid && evictionListener_)
            evictionListener_(line.tag * params_.blockBytes,
                              line.dirty);
        line = Line{};
    }
    mshrs_.clear();
    prefetchFills_.clear();
    if (prefetcher_)
        prefetcher_->reset();
}

void
Cache::copyStateFrom(const Cache &other)
{
    if (numSets_ != other.numSets_ ||
        params_.assoc != other.params_.assoc ||
        params_.blockBytes != other.params_.blockBytes ||
        params_.prefetch.kind != other.params_.prefetch.kind ||
        params_.prefetch.tableEntries !=
            other.params_.prefetch.tableEntries)
        fatal("cache %s: copyStateFrom geometry mismatch",
              params_.name.c_str());
    lines_ = other.lines_;
    lruClock_ = other.lruClock_;
    mshrs_ = other.mshrs_;
    prefetchFills_ = other.prefetchFills_;
    hits_ = other.hits_;
    misses_ = other.misses_;
    mshrMerges_ = other.mshrMerges_;
    writebacks_ = other.writebacks_;
    prefetchIssued_ = other.prefetchIssued_;
    prefetchUseful_ = other.prefetchUseful_;
    if (prefetcher_ && other.prefetcher_ &&
        !prefetcher_->importState(other.prefetcher_->exportState()))
        fatal("cache %s: copyStateFrom prefetcher mismatch",
              params_.name.c_str());
}

CacheState
Cache::exportState() const
{
    CacheState state;
    state.lruClock = lruClock_;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        if (!lines_[i].valid)
            continue;
        state.validLines.push_back(
            {static_cast<std::uint32_t>(i), lines_[i].tag,
             lines_[i].lruStamp, lines_[i].dirty,
             lines_[i].prefetched});
    }
    if (prefetcher_)
        state.prefetch = prefetcher_->exportState();
    return state;
}

bool
Cache::importState(const CacheState &state)
{
    for (auto &line : lines_)
        line = Line{};
    mshrs_.clear();
    prefetchFills_.clear();
    lruClock_ = state.lruClock;
    for (const CacheState::Line &l : state.validLines) {
        if (l.index >= lines_.size())
            return false;
        lines_[l.index] =
            {true, l.dirty, l.prefetched, l.tag, l.lruStamp};
    }
    if (prefetcher_)
        return prefetcher_->importState(state.prefetch);
    return state.prefetch.entries.empty();
}

} // namespace reno
