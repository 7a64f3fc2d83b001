#include "db/buffer_pool.hh"

#include "db/wal.hh"
#include "util/logging.hh"

namespace cgp::db
{

void
BufferPool::forceLogForSteal()
{
    // WAL rule: the log is forced before a page image reaches the
    // volume.  Nothing reads the log back; the force is kept for its
    // traced instructions on the steal path.
    if (log_ != nullptr && log_->tailLsn() - 1 > log_->durableLsn())
        log_->force(log_->tailLsn() - 1);
}

BufferPool::BufferPool(DbContext &ctx, Volume &volume,
                       std::size_t frames, Addr segment_base)
    : ctx_(ctx), volume_(volume), segmentBase_(segment_base),
      frames_(frames)
{
    cgp_assert(frames > 0, "buffer pool needs at least one frame");
    freeList_.reserve(frames);
    for (std::size_t i = frames; i > 0; --i)
        freeList_.push_back(i - 1);
}

Addr
BufferPool::frameAddr(PageId pid, std::uint32_t offset) const
{
    auto it = map_.find(pid);
    cgp_assert(it != map_.end(), "frameAddr of non-resident page");
    return segmentBase_ +
        static_cast<Addr>(it->second) * pageBytes + offset;
}

Addr
BufferPool::frameAddrIfResident(PageId pid,
                                std::uint32_t offset) const
{
    auto it = map_.find(pid);
    if (it == map_.end())
        return invalidAddr;
    return segmentBase_ +
        static_cast<Addr>(it->second) * pageBytes + offset;
}

std::size_t
BufferPool::lookup(PageId pid)
{
    TraceScope ts(ctx_.rec, ctx_.fn.bpLookup);
    ts.work(12);
    {
        TraceScope bs(ctx_.rec, ctx_.fn.bpBucketScan);
        bs.work(10);
        bs.branch(true);
    }
    auto it = map_.find(pid);
    const bool found = it != map_.end();
    ts.branch(found);
    return found ? it->second : npos;
}

std::size_t
BufferPool::evictVictim()
{
    TraceScope ts(ctx_.rec, ctx_.fn.bpEvict);
    std::size_t victim = npos;
    std::uint64_t best = ~0ull;
    for (std::size_t i = 0; i < frames_.size(); ++i) {
        const Frame &f = frames_[i];
        if (f.pid != invalidPageId && f.pins == 0 && f.lru < best) {
            best = f.lru;
            victim = i;
        }
    }
    ts.work(24);
    cgp_assert(victim != npos,
               "buffer pool exhausted: all frames pinned");
    Frame &f = frames_[victim];
    ts.branch(f.dirty);
    if (f.dirty) {
        TraceScope ws(ctx_.rec, ctx_.fn.bpWriteDisk);
        ws.work(30);
        forceLogForSteal();
        volume_.writePage(f.pid, f.bytes.data());
        f.dirty = false;
    }
    map_.erase(f.pid);
    f.pid = invalidPageId;
    ++evictions_;
    return victim;
}

std::uint8_t *
BufferPool::fix(PageId pid)
{
    TraceScope ts(ctx_.rec, ctx_.fn.bpFix);
    ts.work(22);
    {
        TraceScope hs(ctx_.rec, ctx_.fn.bpLatch);
        hs.work(6);
    }
    {
        TraceScope hs(ctx_.rec, ctx_.fn.threadCheck);
        hs.work(5);
    }

    std::size_t idx = lookup(pid);
    const bool hit = idx != npos;
    ts.branch(hit);
    if (!hit) {
        // Getpage_from_disk (Figure 2): rare once resident.
        TraceScope rs(ctx_.rec, ctx_.fn.bpReadDisk);
        rs.work(40);
        if (!freeList_.empty()) {
            idx = freeList_.back();
            freeList_.pop_back();
        } else {
            idx = evictVictim();
        }
        Frame &f = frames_[idx];
        if (f.bytes.empty())
            f.bytes.resize(pageBytes);
        volume_.readPage(pid, f.bytes.data());
        f.pid = pid;
        f.dirty = false;
        f.pins = 0;
        map_[pid] = idx;
        ++diskReads_;
    }

    {
        TraceScope hs(ctx_.rec, ctx_.fn.bpStats);
        hs.work(5);
    }
    Frame &f = frames_[idx];
    {
        TraceScope ps(ctx_.rec, ctx_.fn.bpPin);
        ps.work(5);
        ++f.pins;
    }
    {
        TraceScope lt(ctx_.rec, ctx_.fn.bpLruTouch);
        lt.work(5);
        f.lru = ++tick_;
    }
    ts.loadAt(segmentBase_ + static_cast<Addr>(idx) * pageBytes);
    ts.work(6);
    return f.bytes.data();
}

void
BufferPool::unfix(PageId pid, bool dirty)
{
    TraceScope ts(ctx_.rec, ctx_.fn.bpUnfix);
    ts.work(6);
    {
        TraceScope hs(ctx_.rec, ctx_.fn.bufGuard);
        hs.work(5);
    }
    auto it = map_.find(pid);
    cgp_assert(it != map_.end(), "unfix of non-resident page ", pid);
    Frame &f = frames_[it->second];
    cgp_assert(f.pins > 0, "unfix of unpinned page ", pid);
    {
        TraceScope us(ctx_.rec, ctx_.fn.bpUnpin);
        us.work(4);
        --f.pins;
    }
    f.dirty = f.dirty || dirty;
}

void
BufferPool::flushAll()
{
    TraceScope ts(ctx_.rec, ctx_.fn.bpFlush);
    forceLogForSteal();
    for (auto &f : frames_) {
        if (f.pid != invalidPageId && f.dirty) {
            ts.work(8);
            volume_.writePage(f.pid, f.bytes.data());
            f.dirty = false;
        }
    }
}

unsigned
BufferPool::pinCount(PageId pid) const
{
    auto it = map_.find(pid);
    return it == map_.end() ? 0 : frames_[it->second].pins;
}

} // namespace cgp::db
