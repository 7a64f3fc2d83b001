/**
 * @file
 * Buffer pool with pinning — the heart of the paper's Figure 2
 * example.  fix() is Find_page_in_buffer_pool: given a large pool
 * and repeated access, pages are found pinned/resident and
 * getPageFromDisk is rarely invoked, which is exactly the
 * predictability CGP's history exploits.
 */

#ifndef CGP_DB_BUFFER_POOL_HH
#define CGP_DB_BUFFER_POOL_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "db/common.hh"
#include "db/context.hh"
#include "db/volume.hh"

namespace cgp::db
{

class WriteAheadLog;

class BufferPool
{
  public:
    /**
     * @param frames Pool capacity in pages; size it above the
     *        database footprint so steady state is memory resident.
     * @param segment_base Synthetic data address of frame 0 (distinct
     *        per database instance so D-cache behaviour is faithful).
     */
    BufferPool(DbContext &ctx, Volume &volume, std::size_t frames,
               Addr segment_base = bufferSegmentBase);

    /**
     * Attach the write-ahead log whose tail is forced before a stolen
     * (evicted) dirty page or a flush reaches the volume.  The force
     * is part of the modelled steal path's instruction stream.
     * Optional: without a bound log the pool writes pages directly.
     */
    void bindLog(WriteAheadLog *log) { log_ = log; }

    /**
     * Pin page @p pid, reading it from the volume if absent.
     * @return pointer to the 8KB frame.
     */
    std::uint8_t *fix(PageId pid);

    /** Unpin; @p dirty marks the frame for write-back. */
    void unfix(PageId pid, bool dirty);

    /** Write all dirty frames back to the volume. */
    void flushAll();

    /** Synthetic data address of byte @p offset of page @p pid
     *  (only valid while fixed); used for trace load/store events. */
    Addr frameAddr(PageId pid, std::uint32_t offset) const;

    /**
     * frameAddr() for hint paths: returns invalidAddr instead of
     * asserting when @p pid is not resident (a prefetch hint for a
     * page still on disk is simply dropped by the recorder).
     */
    Addr frameAddrIfResident(PageId pid, std::uint32_t offset) const;

    /// @{ Occupancy introspection (for tests).
    std::size_t residentPages() const { return map_.size(); }
    std::size_t capacity() const { return frames_.size(); }
    unsigned pinCount(PageId pid) const;
    std::uint64_t diskReads() const { return diskReads_; }
    std::uint64_t evictions() const { return evictions_; }
    /// @}

  private:
    struct Frame
    {
        PageId pid = invalidPageId;
        unsigned pins = 0;
        bool dirty = false;
        std::uint64_t lru = 0;
        std::vector<std::uint8_t> bytes;
    };

    /** Find the frame of @p pid, or npos. */
    std::size_t lookup(PageId pid);

    /** Choose and clean the least recently used unpinned frame. */
    std::size_t evictVictim();

    /** Force the bound log's tail before a dirty page is written. */
    void forceLogForSteal();

    static constexpr std::size_t npos = ~std::size_t{0};

    DbContext &ctx_;
    Volume &volume_;
    WriteAheadLog *log_ = nullptr;
    Addr segmentBase_;
    std::vector<Frame> frames_;
    std::unordered_map<PageId, std::size_t> map_;
    std::vector<std::size_t> freeList_;
    std::uint64_t tick_ = 0;
    std::uint64_t diskReads_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace cgp::db

#endif // CGP_DB_BUFFER_POOL_HH
