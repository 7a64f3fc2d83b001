/**
 * @file
 * Tests for the cache hierarchy: hit/miss semantics, LRU, latencies
 * through the shared FIFO port, and — most importantly for this
 * paper — the prefetch classification rules of §5.6 (pref hit /
 * delayed hit / useless / squashed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "sample/checkpoint.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cgp
{
namespace
{

constexpr auto kFetch = AccessSource::DemandFetch;
constexpr auto kNL = AccessSource::PrefetchNL;
constexpr auto kCGHC = AccessSource::PrefetchCGHC;

/** Standalone 4-line cache for focused eviction tests. */
CacheConfig
tinyConfig()
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = 128; // 4 lines
    c.assoc = 2;
    c.lineBytes = 32;
    c.hitLatency = 1;
    return c;
}

TEST(Cache, MissThenHitAfterFill)
{
    Cache cache(tinyConfig(), nullptr, nullptr);
    Cycle now = 1;
    const auto miss = cache.access(0x1000, now, kFetch, false);
    EXPECT_FALSE(miss.hit);
    // Memory-backed: hitLatency + 80.
    EXPECT_EQ(miss.readyCycle, now + 81);

    now = miss.readyCycle;
    cache.tick(now);
    const auto hit = cache.access(0x1000, now, kFetch, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.readyCycle, now + 1);
    EXPECT_EQ(cache.demandMisses(), 1u);
    EXPECT_EQ(cache.demandAccesses(), 2u);
}

TEST(Cache, RejectsZeroWaysAndZeroLineBytes)
{
    // Both divide the size into sets: the check must come first.
    CacheConfig no_ways = tinyConfig();
    no_ways.assoc = 0;
    CacheConfig no_line = tinyConfig();
    no_line.lineBytes = 0;
    detail::setThrowOnError(true);
    EXPECT_THROW(Cache(no_ways, nullptr, nullptr), std::logic_error);
    EXPECT_THROW(Cache(no_line, nullptr, nullptr), std::logic_error);
    detail::setThrowOnError(false);
}

TEST(Cache, SubLineAddressesShareALine)
{
    Cache cache(tinyConfig(), nullptr, nullptr);
    Cycle now = 1;
    const auto r = cache.access(0x1000, now, kFetch, false);
    now = r.readyCycle;
    cache.tick(now);
    EXPECT_TRUE(cache.access(0x101F, now, kFetch, false).hit);
    EXPECT_FALSE(cache.access(0x1020, now, kFetch, false).hit);
}

TEST(Cache, LruEvictsOldest)
{
    // 2 sets x 2 ways; same-set lines are 64B apart.
    Cache cache(tinyConfig(), nullptr, nullptr);
    Cycle now = 1;
    auto touch = [&](Addr a) {
        const auto r = cache.access(a, now, kFetch, false);
        now = std::max(now, r.readyCycle);
        cache.tick(now);
    };
    touch(0x1000);          // set 0
    touch(0x1040);          // set 0
    touch(0x1000);          // refresh LRU of 0x1000
    touch(0x1080);          // set 0: evicts 0x1040
    EXPECT_TRUE(cache.access(0x1000, now, kFetch, false).hit);
    EXPECT_FALSE(cache.access(0x1080, now, kFetch, false).hit ==
                 false);
    EXPECT_FALSE(cache.access(0x1040, now, kFetch, false).hit);
}

TEST(Cache, InflightDemandCoalesces)
{
    Cache cache(tinyConfig(), nullptr, nullptr);
    const auto first = cache.access(0x1000, 1, kFetch, false);
    const auto second = cache.access(0x1008, 2, kFetch, false);
    EXPECT_FALSE(second.hit);
    EXPECT_TRUE(second.delayedHit);
    EXPECT_EQ(second.readyCycle, first.readyCycle);
    EXPECT_EQ(cache.demandMisses(), 1u);
}

TEST(Cache, PrefetchClassificationPrefHit)
{
    Cache cache(tinyConfig(), nullptr, nullptr);
    ASSERT_TRUE(cache.prefetch(0x2000, 1, kNL));
    cache.tick(200); // fill lands
    const auto r = cache.access(0x2000, 200, kFetch, false);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(cache.prefHits(kNL), 1u);
    EXPECT_EQ(cache.delayedHits(kNL), 0u);
    EXPECT_EQ(cache.useless(kNL), 0u);

    // Only the FIRST touch counts as a pref hit.
    cache.access(0x2000, 201, kFetch, false);
    EXPECT_EQ(cache.prefHits(kNL), 1u);
}

TEST(Cache, PrefetchClassificationDelayedHit)
{
    Cache cache(tinyConfig(), nullptr, nullptr);
    ASSERT_TRUE(cache.prefetch(0x2000, 1, kCGHC));
    // Demand arrives before the fill completes.
    const auto r = cache.access(0x2000, 3, kFetch, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.delayedHit);
    EXPECT_EQ(cache.delayedHits(kCGHC), 1u);
    // It is not a demand miss: the prefetch already owns the fill.
    EXPECT_EQ(cache.demandMisses(), 0u);
}

TEST(Cache, PrefetchClassificationUselessOnEviction)
{
    Cache cache(tinyConfig(), nullptr, nullptr);
    ASSERT_TRUE(cache.prefetch(0x1000, 1, kNL)); // set 0
    cache.tick(200);
    // Two demand lines push it out of the 2-way set.
    Cycle now = 200;
    for (Addr a : {0x1040, 0x1080}) {
        const auto r = cache.access(a, now, kFetch, false);
        now = r.readyCycle;
        cache.tick(now);
    }
    EXPECT_EQ(cache.useless(kNL), 1u);
}

TEST(Cache, PrefetchClassificationUselessAtFinalize)
{
    Cache cache(tinyConfig(), nullptr, nullptr);
    ASSERT_TRUE(cache.prefetch(0x2000, 1, kNL));
    cache.tick(200);                        // filled, never touched
    ASSERT_TRUE(cache.prefetch(0x3000, 201, kCGHC)); // still in flight
    cache.finalize();
    EXPECT_EQ(cache.useless(kNL), 1u);
    EXPECT_EQ(cache.useless(kCGHC), 1u);
}

TEST(Cache, PrefetchSquashedWhenPresentOrInflight)
{
    Cache cache(tinyConfig(), nullptr, nullptr);
    ASSERT_TRUE(cache.prefetch(0x2000, 1, kNL));
    EXPECT_FALSE(cache.prefetch(0x2000, 2, kNL)); // in flight
    cache.tick(200);
    EXPECT_FALSE(cache.prefetch(0x2000, 201, kNL)); // resident
    EXPECT_EQ(cache.squashedPrefetches(), 2u);
    EXPECT_EQ(cache.prefetchesIssued(kNL), 1u);
}

TEST(Cache, DemandedInflightPrefetchNotUselessLater)
{
    Cache cache(tinyConfig(), nullptr, nullptr);
    ASSERT_TRUE(cache.prefetch(0x1000, 1, kNL));
    cache.access(0x1000, 2, kFetch, false); // delayed hit
    cache.tick(300);
    // Evict it: must NOT count as useless (it was used).
    Cycle now = 300;
    for (Addr a : {0x1040, 0x1080}) {
        const auto r = cache.access(a, now, kFetch, false);
        now = r.readyCycle;
        cache.tick(now);
    }
    EXPECT_EQ(cache.useless(kNL), 0u);
    EXPECT_EQ(cache.delayedHits(kNL), 1u);
}

TEST(Cache, EarlierFillIssuedLaterIsNotHeldBack)
{
    // An L1 in front of a memory-backed L2 holding line B only: a
    // miss on A goes to memory, a later miss on B is served by the
    // L2, so B's fill is ready long before A's.  tick() skips its
    // walk until the earliest fill can be ready; B must land at its
    // own ready cycle, not at A's.
    CacheConfig l2cfg = tinyConfig();
    l2cfg.name = "l2";
    l2cfg.sizeBytes = 1024;
    l2cfg.hitLatency = 16;
    MemoryPort port;
    Cache l2(l2cfg, nullptr, nullptr);
    Cache l1(tinyConfig(), &l2, &port);
    const Addr a = 0x1000;
    const Addr b = 0x2020;
    l2.warmAccess(b, false);

    const auto ra = l1.access(a, 10, kFetch, false);
    const auto rb = l1.access(b, 11, kFetch, false);
    ASSERT_FALSE(ra.hit);
    ASSERT_FALSE(rb.hit);
    ASSERT_LT(rb.readyCycle + 1, ra.readyCycle);

    for (Cycle c = 12; c < rb.readyCycle; ++c)
        l1.tick(c);
    EXPECT_TRUE(l1.access(b, rb.readyCycle - 1, kFetch, false)
                    .delayedHit);
    l1.tick(rb.readyCycle);
    EXPECT_TRUE(l1.access(b, rb.readyCycle, kFetch, false).hit);
    // A is still on its way and lands at its own cycle.
    EXPECT_TRUE(l1.access(a, rb.readyCycle, kFetch, false).delayedHit);
    l1.tick(ra.readyCycle - 1);
    EXPECT_FALSE(l1.access(a, ra.readyCycle - 1, kFetch, false).hit);
    l1.tick(ra.readyCycle);
    EXPECT_TRUE(l1.access(a, ra.readyCycle, kFetch, false).hit);
    EXPECT_TRUE(l1.inflightEmpty());
}

TEST(Cache, FillsLandInReadyOrderAfterAClockJump)
{
    // A 1-way L1 in front of an L2 holding line B only.  A misses to
    // memory, then B, to the same set, is served by the L2: the fill
    // issued first is ready later.  An older fill, to another set, is
    // in flight throughout.  One tick past all three (as after a jump
    // of the clock) must land B before A, so A evicts B and survives.
    CacheConfig l1cfg = tinyConfig();
    l1cfg.assoc = 1;
    CacheConfig l2cfg = tinyConfig();
    l2cfg.name = "l2";
    l2cfg.sizeBytes = 1024;
    l2cfg.hitLatency = 16;
    MemoryPort port;
    Cache l2(l2cfg, nullptr, nullptr);
    Cache l1(l1cfg, &l2, &port);
    const Addr older = 0x1020;
    const Addr a = 0x1000;
    const Addr b = 0x180;
    l2.warmAccess(b, false);

    const auto ro = l1.access(older, 9, kFetch, false);
    const auto ra = l1.access(a, 10, kFetch, false);
    const auto rb = l1.access(b, 11, kFetch, false);
    ASSERT_FALSE(ro.hit || ra.hit || rb.hit);
    ASSERT_LT(rb.readyCycle, ra.readyCycle);
    ASSERT_LT(rb.readyCycle, ro.readyCycle);
    EXPECT_EQ(l1.nextReadyBound(), rb.readyCycle);

    const Cycle now = std::max(ra.readyCycle, ro.readyCycle) + 50;
    l1.tick(now);
    EXPECT_TRUE(l1.inflightEmpty());
    EXPECT_EQ(l1.nextReadyBound(), std::numeric_limits<Cycle>::max());
    EXPECT_TRUE(l1.access(a, now, kFetch, false).hit);
    EXPECT_TRUE(l1.access(older, now, kFetch, false).hit);
    EXPECT_FALSE(l1.access(b, now, kFetch, false).hit);
}

TEST(Cache, MissAfterLoadStateInstallsOnTime)
{
    // loadState drops every in-flight fill; a miss issued afterwards
    // must still be installed exactly at its ready cycle.
    Cache donor(tinyConfig(), nullptr, nullptr);
    const auto rd = donor.access(0x3000, 1, kFetch, false);
    donor.tick(rd.readyCycle);
    const Json state = donor.saveState();

    Cache cache(tinyConfig(), nullptr, nullptr);
    const auto dropped = cache.access(0x1000, 5, kFetch, false);
    cache.loadState(state);
    EXPECT_TRUE(cache.inflightEmpty());

    const Cycle now = dropped.readyCycle + 7;
    const auto r = cache.access(0x1040, now, kFetch, false);
    ASSERT_FALSE(r.hit);
    cache.tick(r.readyCycle - 1);
    EXPECT_TRUE(cache.access(0x1040, r.readyCycle - 1, kFetch, false)
                    .delayedHit);
    cache.tick(r.readyCycle);
    EXPECT_TRUE(cache.access(0x1040, r.readyCycle, kFetch, false).hit);
    // The restored line survived alongside.
    EXPECT_TRUE(cache.access(0x3000, r.readyCycle, kFetch, false).hit);
}

/**
 * A reference model of warmAccess on a memory-backed level: every
 * access ticks once, a hit stamps the tick, sets dirty on a write and
 * marks the line referenced; a miss fills the first empty way, else
 * the least recently used one, clean and unreferenced, at the next
 * tick.  Emptiness is its own flag, not a tag value.
 */
struct ReferenceLru
{
    struct Way
    {
        bool filled = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
        bool dirty = false;
        bool referenced = false;
    };

    ReferenceLru(std::size_t sets, unsigned assoc)
        : sets(sets), assoc(assoc), ways(sets * assoc)
    {
    }

    /** true on a miss, as warmAccess returns. */
    bool
    access(Addr line, bool write)
    {
        ++tick;
        Way *set = &ways[(line / 32) % sets * assoc];
        for (unsigned w = 0; w < assoc; ++w) {
            Way &way = set[w];
            if (way.filled && way.tag == line) {
                way.lru = tick;
                way.dirty = way.dirty || write;
                way.referenced = true;
                return false;
            }
        }
        Way *victim = set;
        for (unsigned w = 0; w < assoc; ++w) {
            if (!set[w].filled) {
                victim = &set[w];
                break;
            }
            if (set[w].lru < victim->lru)
                victim = &set[w];
        }
        ++tick;
        *victim = Way{true, line, tick, false, false};
        return true;
    }

    /** The saveState() document of a cache named @p name in this
     *  state. */
    Json
    state(const std::string &name) const
    {
        Json j = Json::object();
        j.set("name", name);
        j.set("size_bytes", sets * assoc * 32);
        j.set("assoc", assoc);
        j.set("line_bytes", 32u);
        j.set("tick", tick);
        j.set("empty", sample::emptyRuns(ways.size(), [this](std::size_t i) {
                  return ways[i].filled;
              }));
        Json tags = Json::array();
        Json lrus = Json::array();
        Json meta = Json::array();
        for (const Way &way : ways) {
            if (!way.filled)
                continue;
            tags.push(way.tag);
            lrus.push(way.lru);
            meta.push((way.dirty ? 1u : 0u) | (way.referenced ? 4u : 0u));
        }
        j.set("tag", std::move(tags));
        j.set("lru", std::move(lrus));
        j.set("meta", std::move(meta));
        return j;
    }

    std::size_t sets;
    unsigned assoc;
    std::vector<Way> ways;
    std::uint64_t tick = 0;
};

TEST(Cache, RandomWarmAccessesMatchAReferenceLru)
{
    constexpr std::size_t sets = 16;
    constexpr Addr base = 0x40000;
    for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(assoc);
        CacheConfig cfg;
        cfg.name = "ref";
        cfg.sizeBytes = static_cast<std::uint32_t>(sets * assoc * 32);
        cfg.assoc = assoc;
        cfg.lineBytes = 32;
        Cache cache(cfg, nullptr, nullptr);
        ReferenceLru ref(sets, assoc);
        Rng rng(assoc);

        // Sets 0-11 see 2 * assoc + 1 lines each, set 15 one line
        // and sets 12-14 nothing until the restored phase touches
        // set 12, so empty ways survive both phases.
        const auto traffic = [&](Cache &c, int accesses,
                                 std::size_t busySets) {
            for (int i = 0; i < accesses; ++i) {
                const Addr line = rng.nextBool(0.01)
                    ? base + 15 * 32
                    : base + (rng.nextBelow(2 * assoc + 1) * sets +
                              rng.nextBelow(busySets)) *
                            32;
                const Addr addr = line + rng.nextBelow(32);
                const bool write = rng.nextBool(0.3);
                ASSERT_EQ(c.warmAccess(addr, write),
                          ref.access(line, write))
                    << "access " << i << " to " << addr;
            }
        };
        traffic(cache, 20000, 12);
        const Json state = cache.saveState();
        EXPECT_EQ(state.dump(), ref.state(cfg.name).dump());
        EXPECT_FALSE(state.at("empty").items().empty());

        Cache restored(cfg, nullptr, nullptr);
        restored.loadState(state);
        EXPECT_EQ(restored.saveState().dump(), state.dump());
        traffic(restored, 5000, 13);
        const Json after = restored.saveState();
        EXPECT_EQ(after.dump(), ref.state(cfg.name).dump());
        EXPECT_FALSE(after.at("empty").items().empty());
    }
}

/**
 * A reference model of the timed path of one cache level: access,
 * prefetch, tick and finalize with the §5.6 classification, an MSHR
 * map and, behind a MemoryPort of its own, an optional next level.
 * Fills that land in one land() call go in (ready cycle, issue)
 * order.
 */
struct ReferenceCache
{
    struct Way
    {
        bool filled = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
        bool dirty = false;
        bool prefetched = false;
        bool referenced = false;
        AccessSource source = kFetch;
    };

    struct Fill
    {
        Cycle ready = 0;
        bool prefetch = false;
        bool demanded = false;
        AccessSource source = kFetch;
        std::uint64_t issued = 0; ///< issue order across fills
    };

    ReferenceCache(std::size_t sets, unsigned assoc, Cycle latency,
                   ReferenceCache *next, MemoryPort *port)
        : sets(sets), assoc(assoc), latency(latency), next(next),
          port(port), ways(sets * assoc)
    {
    }

    std::size_t setOf(Addr line) const { return (line / 32) % sets; }

    Way *
    find(Addr line)
    {
        for (unsigned w = 0; w < assoc; ++w) {
            Way &way = ways[setOf(line) * assoc + w];
            if (way.filled && way.tag == line)
                return &way;
        }
        return nullptr;
    }

    bool
    holds(Addr line)
    {
        return find(line) != nullptr || fills.count(line) != 0;
    }

    Cycle
    forward(Addr line, Cycle now, AccessSource source)
    {
        if (next == nullptr)
            return now + latency + 80;
        return next->access(line, port->request(now), source, false)
            .readyCycle;
    }

    Cache::AccessResult
    access(Addr addr, Cycle now, AccessSource source, bool write)
    {
        const Addr line = addr & ~Addr{31};
        ++accesses;
        ++tick;
        Cache::AccessResult res;
        if (Way *way = find(line)) {
            res.hit = true;
            res.readyCycle = now + latency;
            way->lru = tick;
            way->dirty = way->dirty || write;
            if (way->prefetched && !way->referenced) {
                ++prefHits[static_cast<std::size_t>(way->source)];
                way->referenced = true;
            }
            return res;
        }
        if (auto it = fills.find(line); it != fills.end()) {
            if (it->second.prefetch && !it->second.demanded)
                ++delayedHits[static_cast<std::size_t>(it->second.source)];
            it->second.demanded = true;
            res.delayedHit = true;
            res.readyCycle = std::max(it->second.ready, now + latency);
            return res;
        }
        ++misses;
        res.readyCycle = forward(line, now, source);
        fills[line] = Fill{res.readyCycle, false, true, source, ++issues};
        return res;
    }

    bool
    prefetch(Addr addr, Cycle now, AccessSource source)
    {
        const Addr line = addr & ~Addr{31};
        if (holds(line)) {
            ++squashed;
            return false;
        }
        fills[line] =
            Fill{forward(line, now, source), true, false, source, ++issues};
        ++issued[static_cast<std::size_t>(source)];
        return true;
    }

    void
    land(Cycle now)
    {
        std::vector<std::tuple<Cycle, std::uint64_t, Addr>> ready;
        for (const auto &[line, fill] : fills) {
            if (fill.ready <= now)
                ready.emplace_back(fill.ready, fill.issued, line);
        }
        std::sort(ready.begin(), ready.end());
        for (const auto &[cycle, issued, line] : ready) {
            const Fill fill = fills.at(line);
            fills.erase(line);
            Way *set = &ways[setOf(line) * assoc];
            Way *victim = set;
            for (unsigned w = 0; w < assoc; ++w) {
                if (!set[w].filled) {
                    victim = &set[w];
                    break;
                }
                if (set[w].lru < victim->lru)
                    victim = &set[w];
            }
            if (victim->filled && victim->prefetched &&
                !victim->referenced)
                ++useless[static_cast<std::size_t>(victim->source)];
            ++tick;
            *victim = Way{true,          line,          tick, false,
                          fill.prefetch, fill.demanded, fill.source};
        }
    }

    void
    finalize()
    {
        for (const auto &[line, fill] : fills) {
            if (fill.prefetch && !fill.demanded)
                ++useless[static_cast<std::size_t>(fill.source)];
        }
        fills.clear();
        for (Way &way : ways) {
            if (way.filled && way.prefetched && !way.referenced) {
                ++useless[static_cast<std::size_t>(way.source)];
                way.referenced = true;
            }
        }
    }

    std::size_t sets;
    unsigned assoc;
    Cycle latency;
    ReferenceCache *next;
    MemoryPort *port;
    std::vector<Way> ways;
    std::map<Addr, Fill> fills;
    std::uint64_t tick = 0;
    std::uint64_t issues = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t squashed = 0;
    std::uint64_t issued[6] = {};
    std::uint64_t prefHits[6] = {};
    std::uint64_t delayedHits[6] = {};
    std::uint64_t useless[6] = {};
};

/** Every counter the reference keeps, against @p cache's. */
void
expectCountersMatch(const Cache &cache, const ReferenceCache &ref)
{
    EXPECT_EQ(cache.demandAccesses(), ref.accesses);
    EXPECT_EQ(cache.demandMisses(), ref.misses);
    EXPECT_EQ(cache.squashedPrefetches(), ref.squashed);
    for (std::size_t s = 0; s < 6; ++s) {
        const auto src = static_cast<AccessSource>(s);
        SCOPED_TRACE(s);
        EXPECT_EQ(cache.prefetchesIssued(src), ref.issued[s]);
        EXPECT_EQ(cache.prefHits(src), ref.prefHits[s]);
        EXPECT_EQ(cache.delayedHits(src), ref.delayedHits[s]);
        EXPECT_EQ(cache.useless(src), ref.useless[s]);
    }
}

TEST(Cache, RandomAccessesMatchAReferenceModel)
{
    // An L1 of 16 sets in front of a 4-way L2 of 32 sets over one
    // port, each mirrored by a reference level over a port of its
    // own.
    constexpr std::size_t l1Sets = 16;
    constexpr std::size_t l2Sets = 32;
    constexpr Addr base = 0x80000;
    const AccessSource demand[] = {kFetch, AccessSource::DemandLoad,
                                   AccessSource::DemandStore};
    const AccessSource prefetchers[] = {kNL, kCGHC,
                                        AccessSource::DataPrefetch};
    for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(assoc);
        CacheConfig l2cfg{"l2", static_cast<std::uint32_t>(l2Sets * 4 * 32),
                          4, 32, 16};
        CacheConfig l1cfg{"l1",
                          static_cast<std::uint32_t>(l1Sets * assoc * 32),
                          assoc, 32, 1};
        MemoryPort port;
        Cache l2(l2cfg, nullptr, nullptr);
        Cache l1(l1cfg, &l2, &port);
        MemoryPort refPort;
        ReferenceCache refL2(l2Sets, 4, 16, nullptr, nullptr);
        ReferenceCache refL1(l1Sets, assoc, 1, &refL2, &refPort);
        Rng rng(100 + assoc);

        // Three times the L1's lines: hits, evictions and L2 misses.
        const std::uint64_t pool = 3 * l1Sets * assoc;
        Cycle now = 1;
        for (int i = 0; i < 30000; ++i) {
            if (rng.nextBool(0.3)) {
                // One tick after a jump of 1 to 120 cycles, as after
                // the sampler's advanceClock: the fills readied
                // meanwhile land together, in ready-cycle order.
                now += 1 + rng.nextBelow(rng.nextBool(0.1) ? 120 : 3);
                l2.tick(now);
                l1.tick(now);
                refL2.land(now);
                refL1.land(now);
            }
            const Addr addr =
                base + rng.nextBelow(pool) * 32 + rng.nextBelow(32);
            if (rng.nextBool(0.2)) {
                const AccessSource src = prefetchers[rng.nextBelow(3)];
                ASSERT_EQ(l1.prefetch(addr, now, src),
                          refL1.prefetch(addr, now, src))
                    << "prefetch " << i << " of " << addr;
                continue;
            }
            const AccessSource src = demand[rng.nextBelow(3)];
            const bool write = src == AccessSource::DemandStore;
            const auto got = l1.access(addr, now, src, write);
            const auto want = refL1.access(addr, now, src, write);
            ASSERT_EQ(got.hit, want.hit) << "access " << i << " of " << addr;
            ASSERT_EQ(got.delayedHit, want.delayedHit)
                << "access " << i << " of " << addr;
            ASSERT_EQ(got.readyCycle, want.readyCycle)
                << "access " << i << " of " << addr;
        }
        l1.finalize();
        l2.finalize();
        refL1.finalize();
        refL2.finalize();
        {
            SCOPED_TRACE("l1");
            expectCountersMatch(l1, refL1);
        }
        {
            SCOPED_TRACE("l2");
            expectCountersMatch(l2, refL2);
        }
        EXPECT_EQ(port.requests(), refPort.requests());
        EXPECT_EQ(port.waitCycles(), refPort.waitCycles());
        // The traffic reaches every outcome.
        EXPECT_GT(l1.prefHits(kNL) + l1.prefHits(kCGHC), 0u);
        EXPECT_GT(l1.delayedHits(kNL) + l1.delayedHits(kCGHC), 0u);
        EXPECT_GT(l1.useless(kNL) + l1.useless(kCGHC), 0u);
        EXPECT_GT(l1.squashedPrefetches(), 0u);
        EXPECT_GT(l2.demandMisses(), 0u);
    }
}

TEST(Hierarchy, LatenciesMatchTable1)
{
    MemoryHierarchy mem;
    // L1 miss, L2 miss -> memory: ~1 (port) + 16 + 80.
    const auto r1 = mem.l1i().access(0x400000, 10, kFetch, false);
    EXPECT_GE(r1.readyCycle, 10 + 16 + 80);
    EXPECT_LE(r1.readyCycle, 10 + 2 + 16 + 80);

    mem.tick(r1.readyCycle);
    // L1 hit now.
    const auto r2 = mem.l1i().access(0x400000, r1.readyCycle, kFetch,
                                     false);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.readyCycle, r1.readyCycle + 1);

    // A different L1 line in the same (now valid) L2 line: L2 hit.
    // L2 lines are 32B here, so force a fresh L1 line whose L2 entry
    // was filled: reuse the same line after evicting from L1 only is
    // complex — instead verify an L2 hit via a second fetch of an
    // L2-resident line after L1 eviction pressure.
    Cycle now = r1.readyCycle + 1;
    // Fill many lines mapping to the same L1 set (stride = L1 size /
    // assoc = 16KB) to evict 0x400000 from L1 but not from 1MB L2.
    for (int i = 1; i <= 3; ++i) {
        const auto r = mem.l1i().access(0x400000 + i * 16 * 1024, now,
                                        kFetch, false);
        now = r.readyCycle;
        mem.tick(now);
    }
    const auto r3 = mem.l1i().access(0x400000, now, kFetch, false);
    EXPECT_FALSE(r3.hit);
    // Served from L2: ~1 (port) + 16, well below a memory trip.
    EXPECT_LE(r3.readyCycle, now + 20);
    EXPECT_GE(r3.readyCycle, now + 16);
}

TEST(Hierarchy, IAndDClassificationDoNotCrossContaminate)
{
    // §5.6 counters must stay per-source when both prefetchers run
    // concurrently — with and without the shared arbiter installed.
    for (const bool with_arbiter : {false, true}) {
        HierarchyConfig cfg;
        cfg.arbiter.enabled = with_arbiter;
        MemoryHierarchy mem(cfg);
        constexpr auto kD = AccessSource::DataPrefetch;

        // I-side: a useful CGHC prefetch and a useless NL prefetch;
        // D-side: a useful data prefetch.  Staggered cycles keep the
        // shared port free so every request is admitted.
        ASSERT_TRUE(mem.l1i().prefetch(0x400000, 1, kCGHC));
        ASSERT_TRUE(mem.l1i().prefetch(0x410000, 2, kNL));
        ASSERT_TRUE(mem.l1d().prefetch(0x800000, 3, kD));
        mem.tick(200);
        mem.l1i().access(0x400000, 200, kFetch, false);
        mem.l1d().access(0x800000, 201, AccessSource::DemandLoad,
                         false);
        mem.finalize();

        EXPECT_EQ(mem.l1i().prefHits(kCGHC), 1u) << with_arbiter;
        EXPECT_EQ(mem.l1i().useless(kNL), 1u) << with_arbiter;
        EXPECT_EQ(mem.l1d().prefHits(kD), 1u) << with_arbiter;

        // Nothing leaks across sources or across the I/D split.
        EXPECT_EQ(mem.l1i().prefetchesIssued(kD), 0u);
        EXPECT_EQ(mem.l1i().prefHits(kNL), 0u);
        EXPECT_EQ(mem.l1i().useless(kCGHC), 0u);
        EXPECT_EQ(mem.l1d().prefetchesIssued(kNL), 0u);
        EXPECT_EQ(mem.l1d().prefetchesIssued(kCGHC), 0u);
        EXPECT_EQ(mem.l1d().useless(kD), 0u);
        EXPECT_EQ(mem.l1i().squashedPrefetches(), 0u);
        EXPECT_EQ(mem.l1d().squashedPrefetches(), 0u);
    }
}

TEST(Hierarchy, DoubleFinalizeIsIdempotent)
{
    MemoryHierarchy mem;
    // One never-referenced prefetched line per cache level path.
    ASSERT_TRUE(mem.l1i().prefetch(0x400000, 1, kNL));
    ASSERT_TRUE(mem.l1d().prefetch(0x800000, 2,
                                   AccessSource::DataPrefetch));
    mem.tick(200);
    mem.finalize();
    const auto i_useless = mem.l1i().useless(kNL);
    const auto d_useless =
        mem.l1d().useless(AccessSource::DataPrefetch);
    EXPECT_EQ(i_useless, 1u);
    EXPECT_EQ(d_useless, 1u);

    // A second finalize (simulator teardown paths can reach it
    // twice) must not re-classify anything.
    mem.finalize();
    EXPECT_EQ(mem.l1i().useless(kNL), i_useless);
    EXPECT_EQ(mem.l1d().useless(AccessSource::DataPrefetch),
              d_useless);
}

TEST(Hierarchy, PortSharedBetweenIAndD)
{
    MemoryHierarchy mem;
    const auto before = mem.port().requests();
    mem.l1i().access(0x400000, 1, kFetch, false);
    mem.l1d().access(0x800000, 1, AccessSource::DemandLoad, false);
    EXPECT_EQ(mem.port().requests(), before + 2);
}

TEST(MemoryPort, FifoBandwidthLimitsStarts)
{
    MemoryPort port;
    // Issue 6 requests in the same cycle: starts must spread out at
    // `bandwidth` per cycle and never decrease.
    Cycle prev = 0;
    std::map<Cycle, int> per_cycle;
    for (int i = 0; i < 6; ++i) {
        const Cycle s = port.request(10);
        EXPECT_GE(s, prev);
        prev = s;
        ++per_cycle[s];
    }
    for (const auto &[cycle, n] : per_cycle)
        EXPECT_LE(n, static_cast<int>(MemoryPort::bandwidth));
    EXPECT_EQ(port.requests(), 6u);
}

class CacheGeometryTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CacheGeometryTest, RandomAccessStreamInvariants)
{
    const auto [size_kb, assoc] = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = size_kb * 1024;
    cfg.assoc = assoc;
    cfg.lineBytes = 32;
    Cache cache(cfg, nullptr, nullptr);

    Rng rng(size_kb * 131 + assoc);
    Cycle now = 1;
    std::uint64_t accesses = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = 0x400000 + (rng.next() & 0x3ffff);
        const bool write = rng.nextBool(0.2);
        if (rng.nextBool(0.1)) {
            cache.prefetch(a, now, kNL);
        } else {
            cache.access(a, now, kFetch, write);
            ++accesses;
        }
        ++now;
        cache.tick(now);
    }
    cache.finalize();

    EXPECT_EQ(cache.demandAccesses(), accesses);
    EXPECT_LE(cache.demandMisses(), cache.demandAccesses());
    // Conservation: every issued prefetch is classified exactly once.
    EXPECT_EQ(cache.prefetchesIssued(kNL),
              cache.prefHits(kNL) + cache.delayedHits(kNL) +
                  cache.useless(kNL));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(4u, 2u),
                      std::make_pair(32u, 2u),
                      std::make_pair(32u, 8u),
                      std::make_pair(64u, 4u)));

} // namespace
} // namespace cgp
