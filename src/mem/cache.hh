/**
 * @file
 * Cache hierarchy model.
 *
 * Geometry follows paper Table 1: split 32KB 2-way L1 I/D caches and
 * a unified 1MB 4-way L2, all with 32-byte lines; hit latencies 1
 * (L1) and 16 (L2), memory latency 80 cycles.
 *
 * Two properties of the paper's memory system are modeled exactly:
 *
 *  - L2 services L1 misses *and* prefetches through one FIFO port
 *    with no demand priority (§3.3), at one request per cycle, so a
 *    burst of useless prefetches genuinely delays demand misses;
 *
 *  - every prefetched L1 line is classified on its *next* reference
 *    (§5.6 / Figure 8): already present -> "pref hit", still in
 *    flight -> "delayed hit", evicted or never referenced ->
 *    "useless".  Prefetches for lines already present or in flight
 *    are squashed without touching the L2 port.
 */

#ifndef CGP_MEM_CACHE_HH
#define CGP_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/types.hh"

namespace cgp
{

class Json;
class PrefetchArbiter;

/** Who generated a memory-system request (for attribution stats).
 *  I-side and D-side sources are distinct so prefetch accuracy is
 *  never conflated across the two in SimResult. */
enum class AccessSource : std::uint8_t
{
    DemandFetch = 0,  ///< instruction fetch
    DemandLoad = 1,   ///< data load
    DemandStore = 2,  ///< data store
    PrefetchNL = 3,   ///< next-N-line prefetcher (I-side)
    PrefetchCGHC = 4, ///< call graph history cache (I-side)
    DataPrefetch = 5, ///< data-side prefetch engine (src/dprefetch)
    NumSources = 6
};

struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 32;
    Cycle hitLatency = 1;
};

/**
 * The backing side of the last cache level: a fixed-latency memory
 * plus the one-per-cycle FIFO request port described in §3.3.
 */
class MemoryPort
{
  public:
    /** Requests the port can start per cycle (L2 banking). */
    static constexpr unsigned bandwidth = 2;

    /**
     * Enqueue a request arriving at @p now; returns the cycle the
     * next level starts servicing it.  Throughput is limited per
     * cycle in arrival order — demand misses and prefetches queue
     * together with no priority (paper §3.3).  @p requester tags the
     * request for per-core attribution when several cores share the
     * port (the server model); cycles a request waits behind the
     * backlog are charged to its requester as contention.
     */
    Cycle
    request(Cycle now, unsigned requester = 0)
    {
        Cycle start = now + 1;
        if (start < lastStart_)
            start = lastStart_;
        if (start == lastStart_ && startedThisCycle_ >= bandwidth)
            ++start;
        if (start != lastStart_) {
            lastStart_ = start;
            startedThisCycle_ = 1;
        } else {
            ++startedThisCycle_;
        }
        ++requests_;
        const std::uint64_t wait = start - (now + 1);
        waitCycles_ += wait;
        if (requester >= perRequester_.size())
            perRequester_.resize(requester + 1);
        ++perRequester_[requester].requests;
        perRequester_[requester].waitCycles += wait;
        return start;
    }

    /** Total requests that crossed this port (bus traffic in lines). */
    std::uint64_t requests() const { return requests_; }

    /** Total cycles requests spent queued behind the FIFO backlog. */
    std::uint64_t waitCycles() const { return waitCycles_; }

    /// @{ Per-requester attribution (zero for unseen requesters).
    std::uint64_t
    requestsBy(unsigned requester) const
    {
        return requester < perRequester_.size()
            ? perRequester_[requester].requests
            : 0;
    }
    std::uint64_t
    waitCyclesBy(unsigned requester) const
    {
        return requester < perRequester_.size()
            ? perRequester_[requester].waitCycles
            : 0;
    }
    /// @}

    /**
     * Would a request arriving at @p now have to wait behind the
     * backlog (i.e. not start at now + 1)?  Pure query — the port
     * occupancy the arbiter's demand-priority gate keys on.
     */
    bool
    wouldDelay(Cycle now) const
    {
        const Cycle start = now + 1;
        if (lastStart_ > start)
            return true;
        return lastStart_ == start && startedThisCycle_ >= bandwidth;
    }

  private:
    struct RequesterStats
    {
        std::uint64_t requests = 0;
        std::uint64_t waitCycles = 0;
    };

    Cycle lastStart_ = 0;
    unsigned startedThisCycle_ = 0;
    std::uint64_t requests_ = 0;
    std::uint64_t waitCycles_ = 0;
    std::vector<RequesterStats> perRequester_;
};

/**
 * One set-associative, LRU, write-allocate cache level.  Levels are
 * chained: a miss in this level consults @c next (or raw memory when
 * this is the last level).  Timing is computed at request time; fills
 * become visible to subsequent accesses once their ready cycle
 * passes (drained eagerly each CPU cycle via tick()).
 */
class Cache
{
  public:
    /**
     * @param config Geometry/latency.
     * @param next Next cache level, or nullptr if memory-backed.
     * @param memory Memory port used when @p next is nullptr, or the
     *               FIFO port in front of @p next.
     */
    Cache(const CacheConfig &config, Cache *next, MemoryPort *port);

    struct AccessResult
    {
        Cycle readyCycle = 0;  ///< when the data can be consumed
        bool hit = false;      ///< L1 array hit
        bool delayedHit = false; ///< matched an in-flight fill
    };

    /**
     * Demand access (fetch or data).  The hit path is inline; the
     * first use of a prefetched line goes to firstUse() and a miss
     * in the array to accessMiss().
     */
    AccessResult
    access(Addr addr, Cycle now, AccessSource source, bool is_write)
    {
        const Addr line_addr = lineAlign(addr);
        ++accesses_;
        ++tick_;
        Line *l = find(line_addr);
        if (l == nullptr)
            return accessMiss(line_addr, now, source);
        l->lru = tick_;
        l->dirty = l->dirty || is_write;
        if (l->prefetched && !l->referenced)
            firstUse(*l);
        AccessResult res;
        res.hit = true;
        res.readyCycle = now + config_.hitLatency;
        return res;
    }

    /**
     * Prefetch @p addr into this cache.  Squashed (no effect, no L2
     * traffic) when the line is present or already in flight.  With
     * an arbiter installed the request is gated first: dropped,
     * deferred, or merged requests never reach the presence check.
     * @return true if a prefetch request was actually issued.
     */
    bool prefetch(Addr addr, Cycle now, AccessSource source);

    /**
     * Install the shared prefetch arbiter (nullptr = direct issue).
     * With an arbiter, §5.6 classification outcomes are also fed
     * back to it as accuracy signals.
     */
    void setArbiter(PrefetchArbiter *arbiter) { arbiter_ = arbiter; }

    /** Tag this cache's port requests with a core id (server model);
     *  the default 0 keeps single-core attribution unchanged. */
    void setRequesterId(unsigned id) { requester_ = id; }

    /**
     * Arbiter drain path: issue a previously-deferred prefetch
     * without re-entering the admission gate.  Returns false when
     * the line became present/in-flight meanwhile (not counted as a
     * squash — the arbiter accounts it as duplicate-merged).
     */
    bool issueArbitrated(Addr line_addr, Cycle now,
                         AccessSource source);

    /** Pure query: is @p addr's line in the array or an MSHR? */
    bool linePresentOrInflight(Addr addr) const;

    /**
     * Functional-warming mode (SMARTS fast-forward): while set,
     * prefetch() is a no-op — engines keep training their tables but
     * issue nothing, and no statistic moves.  Demand traffic during
     * warming goes through warmAccess() instead of access().
     */
    void setWarming(bool warming) { warming_ = warming; }
    bool warming() const { return warming_; }

    /**
     * Functional (timing-free) demand access: update tags, LRU and
     * dirty bits — recursing into the next level and installing the
     * line on a miss — without touching any counter, MSHR or port.
     * The hit path is inline; a miss goes to warmMiss().
     * @return true when the line missed this level's array and MSHRs.
     */
    bool
    warmAccess(Addr addr, bool is_write)
    {
        const Addr line_addr = lineAlign(addr);
        ++tick_;
        Line *l = find(line_addr);
        if (l == nullptr)
            return warmMiss(line_addr, is_write);
        l->lru = tick_;
        l->dirty = l->dirty || is_write;
        // A warming touch silently "uses" a prefetched line: the
        // classification event happened inside the warmed region, so
        // no counter moves, but the line must not later be counted
        // useless for a reference it did receive.
        l->referenced = true;
        return false;
    }

    /** The earliest pending fill's ready cycle (max when none is in
     *  flight); tick() before it does nothing. */
    Cycle
    nextReadyBound() const
    {
        return inflight_.empty() ? std::numeric_limits<Cycle>::max()
                                 : inflight_.front().readyCycle;
    }

    /** No in-flight fills (checkpoints require a quiesced cache). */
    bool inflightEmpty() const { return inflight_.empty(); }

    /// @{ Warm-state checkpointing: the LRU tick plus the tag, LRU
    /// and flags of each filled way (a sparse section, see
    /// sample/checkpoint.hh).  MSHRs must be empty at save time
    /// (asserted); loadState verifies the serialized geometry matches
    /// this cache's, empties every way and fills in the saved ones.
    Json saveState() const;
    void loadState(const Json &state);
    /// @}

    /**
     * Move fills whose ready cycle has passed into the array, in
     * (ready cycle, allocation) order, which decides their LRU ticks.
     * Returns at once (inline: it runs three times per stepped cycle)
     * while no fill is ready.
     */
    void
    tick(Cycle now)
    {
        if (now >= nextReadyBound())
            landFills(now);
    }

    /**
     * End-of-run accounting: classify still-unreferenced prefetched
     * lines (in the array or in flight) as useless.
     */
    void finalize();

    /// @{ Statistics access for the harness.
    std::uint64_t demandAccesses() const { return accesses_; }
    std::uint64_t demandMisses() const { return misses_; }
    std::uint64_t prefetchesIssued(AccessSource src) const;
    std::uint64_t prefHits(AccessSource src) const;
    std::uint64_t delayedHits(AccessSource src) const;
    std::uint64_t useless(AccessSource src) const;
    std::uint64_t squashedPrefetches() const { return squashed_; }
    /// @}

    std::uint32_t lineBytes() const { return config_.lineBytes; }

    Addr
    lineAlign(Addr addr) const
    {
        return addr & ~static_cast<Addr>(config_.lineBytes - 1);
    }

  private:
    static constexpr std::size_t numSources =
        static_cast<std::size_t>(AccessSource::NumSources);

    /** An empty way holds the tag invalidAddr, which no line
     *  address equals (lines are at least 2 bytes), and is otherwise
     *  default-constructed: no path empties a filled way. */
    struct Line
    {
        Addr tag = invalidAddr;
        std::uint64_t lru = 0;
        bool dirty = false;
        bool prefetched = false;   ///< filled by a prefetch...
        bool referenced = false;   ///< ...and demanded since
        AccessSource source = AccessSource::DemandFetch;
    };

    struct Mshr
    {
        Addr line = invalidAddr;
        Cycle readyCycle = 0;
        bool isPrefetch = false;
        bool demanded = false; ///< a demand access joined the fill
        AccessSource source = AccessSource::DemandFetch;
    };

    std::size_t
    setOf(Addr line_addr) const
    {
        return static_cast<std::size_t>((line_addr >> lineShift_) &
                                        setMask_);
    }

    /** Miss path: compute fill latency through next level / memory. */
    Cycle forwardMiss(Addr line_addr, Cycle now, AccessSource source);

    /** Install a landed fill, evicting LRU (classifying prefetch
     *  victims). */
    void insert(const Mshr &mshr);

    /** The way a fill of @p line_addr takes: the first empty way of
     *  its set, else the least recently used one. */
    Line &victim(Addr line_addr);

    /**
     * The way holding @p line_addr, or null.  Every way's tag is
     * compared into a hit mask before the one branch on it: which
     * way holds a line is close to random, so an early exit
     * mispredicts.
     */
    Line *
    find(Addr line_addr)
    {
        Line *set = &lines_[setOf(line_addr) * config_.assoc];
        std::uint64_t hits = 0;
        for (std::uint32_t w = 0; w < config_.assoc; ++w)
            hits |= static_cast<std::uint64_t>(set[w].tag == line_addr)
                << w;
        return hits == 0 ? nullptr : set + std::countr_zero(hits);
    }

    const Line *
    find(Addr line_addr) const
    {
        return const_cast<Cache *>(this)->find(line_addr);
    }

    /** access() past a miss in the array: join an in-flight fill or
     *  start one through the next level. */
    AccessResult accessMiss(Addr line_addr, Cycle now,
                            AccessSource source);

    /** The first demand reference to prefetched line @p l: a pref
     *  hit (§5.6). */
    void firstUse(Line &l);

    /** The in-flight fill of @p line_addr, or null: a linear scan,
     *  since few fills are in flight at once (DESIGN.md §4.3). */
    Mshr *findInflight(Addr line_addr);
    const Mshr *findInflight(Addr line_addr) const;

    /** warmAccess() past a miss in the array: join an in-flight fill
     *  or warm the next level and install the line. */
    bool warmMiss(Addr line_addr, bool is_write);

    /** Unconditional issue (presence already checked). */
    Cycle issuePrefetch(Addr line_addr, Cycle now,
                        AccessSource source);

    /** tick()'s work, once the earliest fill is ready: install the
     *  ready prefix of inflight_ in order and erase it. */
    void landFills(Cycle now);

    /** Insert a new MSHR after every fill of the same or an earlier
     *  ready cycle. */
    void addInflight(const Mshr &mshr);

    /** Counter-free line install used by the warming path. */
    void warmInstall(Addr line_addr);

    CacheConfig config_;
    Cache *next_;
    MemoryPort *port_;
    PrefetchArbiter *arbiter_ = nullptr;
    unsigned requester_ = 0;
    bool warming_ = false;

    std::uint32_t sets_;
    /** setOf's line-number shift and set mask (both powers of two). */
    unsigned lineShift_;
    std::size_t setMask_;
    std::vector<Line> lines_;
    /** The MSHRs, sorted by (ready cycle, allocation order): the
     *  order in which they land. */
    std::vector<Mshr> inflight_;
    std::uint64_t tick_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t squashed_ = 0;
    std::uint64_t prefIssued_[numSources] = {};
    std::uint64_t prefHits_[numSources] = {};
    std::uint64_t delayedHits_[numSources] = {};
    std::uint64_t useless_[numSources] = {};
};

} // namespace cgp

#endif // CGP_MEM_CACHE_HH
