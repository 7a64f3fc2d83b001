/**
 * @file
 * Tests for the data-side prefetching subsystem (src/dprefetch):
 * stride confidence promotion/demotion, correlation-table recording,
 * eviction bounds and depth/degree limits, semantic-hint coverage and
 * dedup, hint transport through the trace/expander, D-side
 * useful/late/polluting classification, and the fail-soft wrapper.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "codegen/layout.hh"
#include "dprefetch/correlation.hh"
#include "dprefetch/factory.hh"
#include "dprefetch/failsoft.hh"
#include "dprefetch/semantic.hh"
#include "dprefetch/stride.hh"
#include "mem/hierarchy.hh"
#include "trace/expand.hh"
#include "trace/recorder.hh"
#include "util/rng.hh"

namespace cgp
{
namespace
{

constexpr auto kLoad = AccessSource::DemandLoad;
constexpr auto kDPF = AccessSource::DataPrefetch;

/** Standalone L1-D stand-in, memory-backed. */
CacheConfig
dcacheConfig(std::uint32_t size_bytes = 32 * 1024)
{
    CacheConfig c;
    c.name = "l1d";
    c.sizeBytes = size_bytes;
    c.assoc = 2;
    c.lineBytes = 32;
    c.hitLatency = 1;
    return c;
}

// ---------------------------------------------------------------
// Stride prefetcher
// ---------------------------------------------------------------

TEST(Stride, PromotesAfterRepeatedStrideAndPrefetchesAhead)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    StrideDataPrefetcher pf(cache);
    static_assert(StrideDataPrefetcher::promoteAt == 2);

    const Addr pc = 0x400100;
    pf.onAccess(pc, 0x1000, false, true, 1); // allocate
    EXPECT_EQ(pf.confidenceFor(pc), 0u);
    pf.onAccess(pc, 0x1040, false, true, 2); // train stride
    EXPECT_EQ(pf.confidenceFor(pc), 0u);
    EXPECT_EQ(pf.prefetchesRequested(), 0u);
    pf.onAccess(pc, 0x1080, false, true, 3); // stride repeats
    EXPECT_EQ(pf.confidenceFor(pc), 1u);
    EXPECT_EQ(pf.prefetchesRequested(), 0u); // below promoteAt

    pf.onAccess(pc, 0x10C0, false, true, 4); // promoted
    EXPECT_EQ(pf.confidenceFor(pc), 2u);
    // Stride 0x40 > line size: `degree` distinct target lines.
    EXPECT_EQ(pf.prefetchesRequested(), StrideDataPrefetcher::degree);
    EXPECT_EQ(cache.prefetchesIssued(kDPF), StrideDataPrefetcher::degree);
}

TEST(Stride, StrayAccessDemotesWithoutRetraining)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    StrideDataPrefetcher pf(cache);
    constexpr unsigned maxConfidence = StrideDataPrefetcher::maxConfidence;

    const Addr pc = 0x400200;
    Addr a = 0x2000;
    for (unsigned i = 0; i < maxConfidence + 3; ++i, a += 0x40)
        pf.onAccess(pc, a, false, false, i + 1);
    EXPECT_EQ(pf.confidenceFor(pc), maxConfidence);

    // One stray access: confidence drops, the stride survives...
    pf.onAccess(pc, 0x9000, false, false, 10);
    EXPECT_EQ(pf.confidenceFor(pc), maxConfidence - 1);
    // ...so the stream re-promotes on the very next matching delta.
    pf.onAccess(pc, 0x9040, false, false, 11);
    EXPECT_EQ(pf.confidenceFor(pc), maxConfidence);
}

TEST(Stride, RetrainsStrideOnlyAtZeroConfidence)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    StrideDataPrefetcher pf(cache);

    const Addr pc = 0x400300;
    pf.onAccess(pc, 0x1000, false, false, 1);
    pf.onAccess(pc, 0x1010, false, false, 2); // stride := 0x10
    pf.onAccess(pc, 0x1030, false, false, 3); // conf 0 -> stride := 0x20
    pf.onAccess(pc, 0x1050, false, false, 4); // matches new stride
    EXPECT_EQ(pf.confidenceFor(pc), 1u);
}

TEST(Stride, TagConflictReallocatesSlot)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    StrideDataPrefetcher pf(cache);

    const Addr pc_a = 0x400400;
    const Addr pc_b = pc_a + 4 * StrideDataPrefetcher::tableEntries; // same slot
    Addr a = 0x3000;
    for (int i = 0; i < 5; ++i, a += 0x40)
        pf.onAccess(pc_a, a, false, false, i + 1);
    EXPECT_GT(pf.confidenceFor(pc_a), 0u);

    pf.onAccess(pc_b, 0x8000, false, false, 10);
    EXPECT_EQ(pf.confidenceFor(pc_a), 0u); // slot taken over
    EXPECT_EQ(pf.confidenceFor(pc_b), 0u); // fresh allocation
}

// ---------------------------------------------------------------
// Miss-correlation prefetcher
// ---------------------------------------------------------------

TEST(Correlation, RecordsSuccessorsInMruOrderAndPrefetchesThem)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationDataPrefetcher pf(cache);

    const Addr A = 0x1000, B = 0x2000, C = 0x3000;
    pf.onMiss(0, A, 1);
    pf.onMiss(0, B, 2); // records A -> B
    EXPECT_EQ(pf.successorsOf(A), std::vector<Addr>{B});

    pf.onMiss(0, A, 3); // records B -> A; prefetches succ(A) = {B}
    EXPECT_GE(pf.prefetchesRequested(), 1u);
    EXPECT_EQ(cache.prefetchesIssued(kDPF), pf.prefetchesRequested());

    pf.onMiss(0, C, 4); // records A -> C
    pf.onMiss(0, A, 5); // records C -> A
    EXPECT_EQ(pf.successorsOf(A), (std::vector<Addr>{C, B}));
}

TEST(Correlation, SuccessorListBoundedMruFirst)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationDataPrefetcher pf(cache);

    // One successor more than the list holds, oldest first.
    const Addr A = 0x1000;
    std::vector<Addr> succs;
    for (unsigned k = 0; k <= CorrelationDataPrefetcher::successors; ++k)
        succs.push_back(0x2000 + k * 0x1000);
    for (Addr succ : succs) {
        pf.onMiss(0, A, 1);
        pf.onMiss(0, succ, 2);
    }
    // The oldest fell off the end: only the most recent remain.
    const std::vector<Addr> mruFirst(succs.rbegin(), succs.rend() - 1);
    EXPECT_EQ(pf.successorsOf(A), mruFirst);
}

TEST(Correlation, TableBoundedWithLruEviction)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationDataPrefetcher pf(cache);

    constexpr unsigned entries = CorrelationDataPrefetcher::entries;
    for (unsigned i = 0; i < 2 * entries; ++i)
        pf.onMiss(0, 0x10000 + static_cast<Addr>(i) * 0x1000, i + 1);
    EXPECT_LE(pf.entryCount(), entries);
    EXPECT_GT(pf.evictions(), 0u);
}

TEST(Correlation, LookupPrefetchesDirectSuccessorsOnly)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationDataPrefetcher pf(cache);

    const Addr A = 0x1000, B = 0x2000, C = 0x3000;
    pf.onMiss(0, A, 1);
    pf.onMiss(0, B, 2); // A -> B
    pf.onMiss(0, C, 3); // B -> C
    EXPECT_EQ(pf.prefetchesRequested(), 0u);

    // Miss on A again: A's successor B is prefetched; B's successor
    // C is not, the lookup does not chain.
    pf.onMiss(0, A, 4);
    EXPECT_EQ(pf.prefetchesRequested(), 1u);
    EXPECT_TRUE(cache.linePresentOrInflight(B));
    EXPECT_FALSE(cache.linePresentOrInflight(C));
}

TEST(Correlation, DegreeCapsPrefetchesPerLookup)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationDataPrefetcher pf(cache);
    constexpr unsigned degree = CorrelationDataPrefetcher::degree;
    static_assert(degree < CorrelationDataPrefetcher::successors);

    const Addr A = 0x1000;
    for (unsigned k = 0; k <= degree; ++k) {
        pf.onMiss(0, A, 1);
        pf.onMiss(0, 0x2000 + k * 0x1000, 2);
    }
    ASSERT_EQ(pf.successorsOf(A).size(), degree + 1);
    const auto before = pf.prefetchesRequested();
    pf.onMiss(0, 0x9000, 8); // make lastMiss != A
    pf.onMiss(0, A, 9);      // succ(A) has degree + 1 entries
    EXPECT_EQ(pf.prefetchesRequested(), before + degree);
}

namespace
{

/** Misses on consecutive lines from 0x100000 until the first
 *  eviction, with one extra miss on @p touch just before the miss on
 *  @p touchBefore; returns the consecutive lines.  Each miss
 *  allocates (or touches) the entry of the miss before it, so the
 *  last line is not yet a trigger. */
std::vector<Addr>
missUntilEviction(CorrelationDataPrefetcher &pf, Addr touch = invalidAddr,
                  Addr touchBefore = invalidAddr)
{
    std::vector<Addr> lines;
    Cycle now = 1;
    for (Addr line = 0x100000; pf.evictions() == 0; line += 0x40) {
        if (line == touchBefore)
            pf.onMiss(0, touch, ++now);
        pf.onMiss(0, line, ++now);
        lines.push_back(line);
    }
    return lines;
}

} // namespace

TEST(Correlation, SetAssociativityScopesReplacement)
{
    // Distinct triggers until the first eviction: replacement that
    // is set-scoped evicts once one set overflows, while the table
    // still has free entries elsewhere.
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationDataPrefetcher pf(cache);
    const std::vector<Addr> lines = missUntilEviction(pf);
    const std::vector<Addr> triggers(lines.begin(), lines.end() - 1);
    ASSERT_GT(triggers.size(), CorrelationDataPrefetcher::assoc);
    EXPECT_LT(pf.entryCount(), CorrelationDataPrefetcher::entries);
    EXPECT_EQ(pf.entryCount(), triggers.size() - 1);
    std::vector<Addr> evicted;
    for (Addr t : triggers) {
        if (pf.successorsOf(t).empty())
            evicted.push_back(t);
    }
    ASSERT_EQ(evicted.size(), 1u);
    const Addr victim = evicted.front();

    // The victim was its set's least recently used trigger: touched
    // just before the overflowing trigger's entry is allocated, it
    // survives and another trigger of the set goes instead.
    Cache cache2(dcacheConfig(), nullptr, nullptr);
    CorrelationDataPrefetcher again(cache2);
    const std::vector<Addr> lines2 =
        missUntilEviction(again, victim, triggers.back());
    EXPECT_EQ(lines2, lines);
    EXPECT_FALSE(again.successorsOf(victim).empty());
    std::size_t gone = 0;
    for (Addr t : triggers)
        gone += again.successorsOf(t).empty() ? 1 : 0;
    EXPECT_EQ(gone, 1u);
}

namespace
{

struct CorrReplay
{
    std::uint64_t requested = 0;
    std::uint64_t evictions = 0;
    std::uint64_t issued = 0;
    std::size_t entries = 0;
    std::vector<std::vector<Addr>> sampled;
};

/** One deterministic random-miss replay, asserting the AMC table
 *  invariants along the way. */
CorrReplay
runCorrReplay(std::uint64_t seed)
{
    using Corr = CorrelationDataPrefetcher;
    Cache cache(dcacheConfig(), nullptr, nullptr);
    Corr pf(cache);

    // Twice as many hot lines as entries: plenty of repeats AND
    // plenty of conflicts.
    constexpr Addr hot = 2 * Corr::entries;
    Rng rng(seed);
    Cycle now = 1;
    for (int i = 0; i < 20000; ++i) {
        ++now;
        cache.tick(now);
        const Addr a = 0x100000 + (rng.next() % hot) * 0x40;
        const auto before = pf.prefetchesRequested();
        pf.onMiss(0, a, now);
        // Per-miss issue bound: one lookup of at most degree lines.
        EXPECT_LE(pf.prefetchesRequested() - before, Corr::degree);
        // The table never exceeds its budget.
        EXPECT_LE(pf.entryCount(), Corr::entries);
    }

    CorrReplay r;
    r.requested = pf.prefetchesRequested();
    r.evictions = pf.evictions();
    r.issued = cache.prefetchesIssued(kDPF);
    r.entries = pf.entryCount();
    for (Addr a = 0x100000; a < 0x100000 + hot * 0x40; a += 0x40) {
        const std::vector<Addr> succ = pf.successorsOf(a);
        // Successor lists honour their per-trigger bound.
        EXPECT_LE(succ.size(), Corr::successors);
        r.sampled.push_back(succ);
    }
    return r;
}

} // namespace

TEST(Correlation, PropertyRandomStreamBoundsAndDeterminism)
{
    for (const std::uint64_t seed : {1ull, 42ull, 1234ull}) {
        const CorrReplay a = runCorrReplay(seed);
        ASSERT_GT(a.requested, 0u) << seed;
        ASSERT_GT(a.evictions, 0u) << seed; // conflicts exercised

        // Replaying the identical miss stream reproduces the table
        // and every counter bit-for-bit.
        const CorrReplay b = runCorrReplay(seed);
        EXPECT_EQ(a.requested, b.requested) << seed;
        EXPECT_EQ(a.evictions, b.evictions) << seed;
        EXPECT_EQ(a.issued, b.issued) << seed;
        EXPECT_EQ(a.entries, b.entries) << seed;
        EXPECT_EQ(a.sampled, b.sampled) << seed;
    }
}

// ---------------------------------------------------------------
// Semantic prefetcher
// ---------------------------------------------------------------

TEST(Semantic, BtreeHintsCoverMoreLinesThanHeapHints)
{
    using Sem = SemanticDataPrefetcher;
    static_assert(Sem::btreeLines > Sem::lines);
    Cache cache(dcacheConfig(), nullptr, nullptr);
    Sem pf(cache);

    pf.onHint(DataHintKind::HeapRecord, 0x1000, 1);
    EXPECT_EQ(pf.prefetchesRequested(), Sem::lines);
    pf.onHint(DataHintKind::BtreeChild, 0x4000, 2);
    EXPECT_EQ(pf.prefetchesRequested(), Sem::lines + Sem::btreeLines);
    EXPECT_EQ(pf.hintsSeen(), 2u);
    EXPECT_EQ(cache.prefetchesIssued(kDPF), Sem::lines + Sem::btreeLines);
}

TEST(Semantic, RepeatedHintsDeduplicated)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    SemanticDataPrefetcher pf(cache);
    static_assert(SemanticDataPrefetcher::lines == 2);

    pf.onHint(DataHintKind::HeapNextSlot, 0x1000, 1);
    const auto requested = pf.prefetchesRequested();
    // The iterator advance path re-announces the same page.
    pf.onHint(DataHintKind::HeapNextSlot, 0x1000, 2);
    pf.onHint(DataHintKind::HeapNextSlot, 0x1008, 3); // same lines
    EXPECT_EQ(pf.prefetchesRequested(), requested);
    EXPECT_EQ(pf.linesDeduped(), 2u * SemanticDataPrefetcher::lines);
    EXPECT_EQ(pf.hintsSeen(), 3u);
}

// ---------------------------------------------------------------
// Hint transport: recorder -> trace -> expander -> DynInst
// ---------------------------------------------------------------

TEST(HintTransport, HintsRideTheTraceAndAttachToInstructions)
{
    FunctionRegistry reg;
    const FunctionId f = reg.declare("F", FunctionTraits::small());
    TraceBuffer trace;
    TraceRecorder rec(trace);
    rec.call(f);
    rec.work(20);
    rec.hint(DataHintKind::BtreeChild, 0xABC0);
    rec.loadAt(0x1000'0000);
    rec.work(10);
    rec.hint(DataHintKind::HeapNextSlot, 0x5540);
    rec.hint(DataHintKind::HeapRecord, invalidAddr); // dropped
    rec.storeAt(0x1000'0040);
    rec.ret();

    LayoutBuilder builder(reg);
    const CodeImage image = builder.buildOriginal();
    InstructionExpander ex(reg, image, trace);
    std::vector<DynInst> hinted;
    DynInst inst;
    while (ex.next(inst)) {
        if (inst.hintAddr != invalidAddr)
            hinted.push_back(inst);
    }
    ASSERT_EQ(hinted.size(), 2u);
    EXPECT_EQ(hinted[0].hintAddr, 0xABC0u);
    EXPECT_EQ(static_cast<DataHintKind>(hinted[0].hintKind),
              DataHintKind::BtreeChild);
    EXPECT_EQ(hinted[1].hintAddr, 0x5540u);
    EXPECT_EQ(static_cast<DataHintKind>(hinted[1].hintKind),
              DataHintKind::HeapNextSlot);
}

TEST(HintTransport, PayloadPacksKindAndAddress)
{
    const TraceEvent e =
        makeHintEvent(DataHintKind::HeapNextPage, 0x1234'5678);
    EXPECT_EQ(e.kind(), EventKind::Hint);
    EXPECT_EQ(hintKindOf(e.payload()), DataHintKind::HeapNextPage);
    EXPECT_EQ(hintAddrOf(e.payload()), 0x1234'5678u);
}

// ---------------------------------------------------------------
// D-side classification (§5.6 rules with AccessSource::DataPrefetch)
// ---------------------------------------------------------------

TEST(DsideClassification, UsefulLateAndPollutingSeparated)
{
    // 4-line cache: 2 sets x 2 ways.
    Cache cache(dcacheConfig(128), nullptr, nullptr);

    // Useful: filled before the demand load arrives.
    ASSERT_TRUE(cache.prefetch(0x2000, 1, kDPF));
    cache.tick(200);
    EXPECT_TRUE(cache.access(0x2000, 200, kLoad, false).hit);
    EXPECT_EQ(cache.prefHits(kDPF), 1u);
    EXPECT_EQ(cache.demandMisses(), 0u);

    // Late: demand load joins the in-flight prefetch.
    ASSERT_TRUE(cache.prefetch(0x2040, 201, kDPF));
    const auto r = cache.access(0x2040, 203, kLoad, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.delayedHit);
    EXPECT_EQ(cache.delayedHits(kDPF), 1u);
    EXPECT_EQ(cache.demandMisses(), 0u);

    // Polluting: filled, never referenced, classified at finalize.
    cache.tick(400);
    ASSERT_TRUE(cache.prefetch(0x3000, 400, kDPF));
    cache.tick(600);
    cache.finalize();
    EXPECT_EQ(cache.useless(kDPF), 1u);
    // Conservation: every issued prefetch classified exactly once.
    EXPECT_EQ(cache.prefetchesIssued(kDPF),
              cache.prefHits(kDPF) + cache.delayedHits(kDPF) +
                  cache.useless(kDPF));
}

TEST(DsideClassification, HierarchyFinalizeCoversL2)
{
    MemoryHierarchy mem;
    // A prefetch into the L2 that is never referenced must be
    // classified useless by MemoryHierarchy::finalize() — the L2 is
    // finalized explicitly, not via the L1 chain.
    ASSERT_TRUE(mem.l2().prefetch(0x7000, 1, kDPF));
    mem.tick(500);
    mem.finalize();
    EXPECT_EQ(mem.l2().useless(kDPF), 1u);
    EXPECT_EQ(mem.l2().prefetchesIssued(kDPF), 1u);
}

// ---------------------------------------------------------------
// Factory + combined engine
// ---------------------------------------------------------------

TEST(Factory, NoneYieldsNoEngine)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    DPrefetchConfig cfg;
    EXPECT_EQ(makeDataPrefetcher(cache, cfg), nullptr);
}

TEST(Factory, KindsProduceNamedEngines)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    const std::pair<DataPrefetchKind, const char *> kinds[] = {
        {DataPrefetchKind::Stride, "stride"},
        {DataPrefetchKind::Correlation, "corr"},
        {DataPrefetchKind::Semantic, "semantic"},
        {DataPrefetchKind::Combined, "combined"},
    };
    for (const auto &[kind, name] : kinds) {
        DPrefetchConfig cfg;
        cfg.kind = kind;
        const auto pf = makeDataPrefetcher(cache, cfg);
        ASSERT_NE(pf, nullptr);
        EXPECT_STREQ(pf->name(), name);
        EXPECT_STREQ(dataPrefetchKindName(kind), name);
    }
}

TEST(Factory, CombinedForwardsAllEventChannels)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    DPrefetchConfig cfg;
    cfg.kind = DataPrefetchKind::Combined;
    const auto pf = makeDataPrefetcher(cache, cfg);
    ASSERT_NE(pf, nullptr);

    // Semantic channel reaches the semantic part.
    pf->onHint(DataHintKind::BtreeChild, 0x4000, 1);
    EXPECT_GT(cache.prefetchesIssued(kDPF), 0u);

    // Access channel reaches the stride part: train a stream.
    const auto before = cache.prefetchesIssued(kDPF) +
        cache.squashedPrefetches();
    Addr a = 0x100000;
    for (int i = 0; i < 8; ++i, a += 0x40)
        pf->onAccess(0x400100, a, false, false, i + 2);
    EXPECT_GT(cache.prefetchesIssued(kDPF) +
                  cache.squashedPrefetches(),
              before);
}

// ---------------------------------------------------------------
// Fail-soft wrapper
// ---------------------------------------------------------------

struct ThrowingDataPrefetcher : DataPrefetcher
{
    void
    onAccess(Addr, Addr, bool, bool, Cycle) override
    {
        throw std::runtime_error("injected dprefetch fault");
    }
    const char *name() const override { return "throwy"; }
};

TEST(FailSoft, FirstFaultDisablesInnerAndRunContinues)
{
    FailSoftDataPrefetcher fs(
        std::make_unique<ThrowingDataPrefetcher>());
    EXPECT_FALSE(fs.degraded());
    EXPECT_STREQ(fs.name(), "throwy");

    EXPECT_NO_THROW(fs.onAccess(0x100, 0x1000, false, true, 1));
    EXPECT_TRUE(fs.degraded());
    EXPECT_NE(fs.reason().find("injected dprefetch fault"),
              std::string::npos);
    EXPECT_STREQ(fs.name(), "none (degraded)");

    // Every hook is now a no-op; nothing escapes.
    EXPECT_NO_THROW(fs.onAccess(0x100, 0x1040, false, true, 2));
    EXPECT_NO_THROW(fs.onMiss(0x100, 0x1080, 3));
    EXPECT_NO_THROW(fs.onHint(DataHintKind::HeapRecord, 0x2000, 4));
}

} // namespace
} // namespace cgp
