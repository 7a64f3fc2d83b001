/**
 * @file
 * Tests for trace events, the shared-storage trace buffer, the
 * recorder, and the interleaved merge (server::legacyMerge).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "harness/workload.hh"
#include "server/compat.hh"
#include "trace/events.hh"
#include "trace/recorder.hh"
#include "util/rng.hh"

namespace cgp
{
namespace
{

TEST(TraceEvent, PackUnpackRoundTrip)
{
    const EventKind kinds[] = {EventKind::Call, EventKind::Return,
                               EventKind::Work, EventKind::Branch,
                               EventKind::Load, EventKind::Store,
                               EventKind::Switch};
    const std::uint64_t payloads[] = {0, 1, 42, 0xdeadbeef,
                                      TraceEvent::payloadMask};
    for (auto k : kinds) {
        for (auto p : payloads) {
            const TraceEvent e = TraceEvent::make(k, p);
            EXPECT_EQ(e.kind(), k);
            EXPECT_EQ(e.payload(), p);
            const TraceEvent r = TraceEvent::fromRaw(e.raw());
            EXPECT_EQ(r.kind(), k);
            EXPECT_EQ(r.payload(), p);
        }
    }
}

TEST(TraceBuffer, CountsApproxInstrsAndCalls)
{
    TraceBuffer buf;
    buf.append(TraceEvent::make(EventKind::Call, 3));
    buf.append(TraceEvent::make(EventKind::Work, 100));
    buf.append(TraceEvent::make(EventKind::Branch, 1));
    buf.append(TraceEvent::make(EventKind::Return, 0));
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.calls(), 1u);
    // call=1 + work=100 + branch=1 + return=1
    EXPECT_EQ(buf.approxInstrs(), 103u);

    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.approxInstrs(), 0u);
}

/** A random event of any kind, with a payload that fits it. */
TraceEvent
randomEvent(Rng &rng)
{
    const auto kind = static_cast<EventKind>(1 + rng.nextBelow(8));
    switch (kind) {
      case EventKind::Work:
        return TraceEvent::make(kind, 1 + rng.nextBelow(500));
      case EventKind::Hint:
        return makeHintEvent(DataHintKind::HeapNextSlot,
                             rng.nextBelow(1u << 20));
      default:
        return TraceEvent::make(kind, rng.nextBelow(1000));
    }
}

/** Flat reference model of a TraceBuffer. */
struct FlatTrace
{
    std::vector<std::uint64_t> events;
    std::uint64_t approxInstrs = 0;
    std::uint64_t calls = 0;

    void
    append(TraceEvent e)
    {
        events.push_back(e.raw());
        if (e.kind() == EventKind::Work)
            approxInstrs += e.payload();
        else if (e.kind() != EventKind::Hint)
            ++approxInstrs;
        if (e.kind() == EventKind::Call)
            ++calls;
    }
};

/** @p buf holds exactly @p ref, by index, by cursor and in counts. */
void
expectMatches(const TraceBuffer &buf, const FlatTrace &ref)
{
    ASSERT_EQ(buf.size(), ref.events.size());
    EXPECT_EQ(buf.empty(), ref.events.empty());
    EXPECT_EQ(buf.approxInstrs(), ref.approxInstrs);
    EXPECT_EQ(buf.calls(), ref.calls);
    for (std::size_t i = 0; i < ref.events.size(); ++i)
        ASSERT_EQ(buf.at(i).raw(), ref.events[i]) << "at " << i;

    TraceBuffer::Cursor whole(buf);
    TraceEvent e = TraceEvent::fromRaw(0);
    for (std::size_t i = 0; i < ref.events.size(); ++i) {
        ASSERT_EQ(whole.position(), i);
        ASSERT_TRUE(whole.next(e));
        ASSERT_EQ(e.raw(), ref.events[i]) << "cursor at " << i;
    }
    EXPECT_FALSE(whole.next(e));
    EXPECT_EQ(whole.position(), ref.events.size());
}

TEST(TraceBuffer, RandomAppendsAndSlicesMatchAFlatReference)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        // Sources: recorded buffers, and one that is itself made of
        // slices, so slices of slices are covered too.
        std::vector<TraceBuffer> srcs(3);
        std::vector<FlatTrace> srcRefs(3);
        for (std::size_t s = 0; s < 2; ++s) {
            const std::uint64_t n = 1 + rng.nextBelow(300);
            for (std::uint64_t i = 0; i < n; ++i) {
                const TraceEvent e = randomEvent(rng);
                srcs[s].append(e);
                srcRefs[s].append(e);
            }
        }
        for (int k = 0; k < 6; ++k) {
            const std::size_t s = rng.nextBelow(2);
            const std::size_t b = rng.nextBelow(srcs[s].size() + 1);
            const std::size_t e =
                b + rng.nextBelow(srcs[s].size() - b + 1);
            srcs[2].appendRange(srcs[s], b, e);
            for (std::size_t i = b; i < e; ++i)
                srcRefs[2].append(TraceEvent::fromRaw(srcRefs[s].events[i]));
            srcs[2].append(TraceEvent::make(EventKind::Switch, k));
            srcRefs[2].append(TraceEvent::make(EventKind::Switch, k));
        }
        expectMatches(srcs[2], srcRefs[2]);

        TraceBuffer buf;
        FlatTrace ref;
        for (int op = 0; op < 200; ++op) {
            if (rng.nextBool(0.5)) {
                const TraceEvent e = randomEvent(rng);
                buf.append(e);
                ref.append(e);
                continue;
            }
            const std::size_t s = rng.nextBelow(srcs.size());
            const std::size_t n = srcs[s].size();
            const std::size_t b = rng.nextBelow(n + 1);
            const std::size_t e = b + rng.nextBelow(n - b + 1);
            buf.appendRange(srcs[s], b, e);
            for (std::size_t i = b; i < e; ++i)
                ref.append(TraceEvent::fromRaw(srcRefs[s].events[i]));
        }
        expectMatches(buf, ref);

        // Copies and moves keep the sequence.
        TraceBuffer copy = buf;
        expectMatches(copy, ref);
        TraceBuffer moved = std::move(copy);
        expectMatches(moved, ref);
        EXPECT_TRUE(copy.empty());
    }
}

TEST(TraceBuffer, SourcesChangedAfterSlicingLeaveTheMergeAlone)
{
    Rng rng(7);
    TraceBuffer a;
    TraceBuffer b;
    for (int i = 0; i < 50; ++i) {
        a.append(randomEvent(rng));
        b.append(randomEvent(rng));
    }
    TraceBuffer merged;
    merged.append(TraceEvent::make(EventKind::Switch, 0));
    merged.appendRange(a, 10, 40);
    merged.append(TraceEvent::make(EventKind::Switch, 1));
    merged.appendRange(b, 0, 50);
    std::vector<std::uint64_t> before;
    for (std::size_t i = 0; i < merged.size(); ++i)
        before.push_back(merged.at(i).raw());
    const std::uint64_t instrs = merged.approxInstrs();
    EXPECT_EQ(merged.eventsSharedWith(a), 30u);
    EXPECT_EQ(merged.eventsSharedWith(b), 50u);
    // One run over all of a: indexed straight into a's chunk.
    TraceBuffer whole;
    whole.appendRange(a, 0, a.size());
    std::vector<std::uint64_t> aBefore;
    for (std::size_t i = 0; i < a.size(); ++i)
        aBefore.push_back(a.at(i).raw());

    // Growing a shared source starts a new chunk (the shared one is
    // never written, so never reallocated): the slices still read
    // the old events, and the source reads all of its own.
    const std::size_t aSize = a.size();
    for (int i = 0; i < 1000; ++i)
        a.append(TraceEvent::make(EventKind::Work, 7));
    ASSERT_EQ(a.size(), aSize + 1000);
    EXPECT_EQ(a.at(aSize).payload(), 7u);
    EXPECT_EQ(a.eventsSharedWith(merged), aSize);
    ASSERT_EQ(whole.size(), aSize);
    for (std::size_t i = 0; i < aSize; ++i)
        EXPECT_EQ(whole.at(i).raw(), aBefore[i]) << i;
    b.clear();
    for (int i = 0; i < 10; ++i)
        b.append(TraceEvent::make(EventKind::Branch, 1));

    ASSERT_EQ(merged.size(), before.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
        EXPECT_EQ(merged.at(i).raw(), before[i]) << i;
    EXPECT_EQ(merged.approxInstrs(), instrs);
    EXPECT_EQ(merged.eventsSharedWith(b), 0u);

    // The merge goes on appending to its own chunk.
    merged.append(TraceEvent::make(EventKind::Switch, 2));
    ASSERT_EQ(merged.size(), before.size() + 1);
    EXPECT_EQ(merged.at(before.size()).payload(), 2u);
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(merged.at(i).raw(), before[i]) << i;
}

TEST(TraceBuffer, DbSetMergedTracesStoreOnlyTheirSwitches)
{
    const DbWorkloadSet set = WorkloadFactory::buildDbSet(0.03);
    for (const Workload &w : set.workloads) {
        SCOPED_TRACE(w.name);
        ASSERT_NE(w.queryLibrary, nullptr);
        ASSERT_NE(w.switchStub, nullptr);
        const TraceBuffer &merged = *w.trace;
        const TraceBuffer &stub = *w.switchStub;

        std::size_t switches = 0;
        TraceBuffer::Cursor cursor(merged);
        for (TraceEvent e = TraceEvent::fromRaw(0); cursor.next(e);)
            switches += e.kind() == EventKind::Switch ? 1 : 0;

        // Every library event once, the stub once per Switch, and
        // nothing else but the Switches is stored in the merge.
        std::size_t shared = merged.eventsSharedWith(stub);
        EXPECT_EQ(shared, switches * stub.size());
        for (const TraceBuffer &q : *w.queryLibrary) {
            EXPECT_EQ(merged.eventsSharedWith(q), q.size());
            shared += q.size();
        }
        EXPECT_EQ(merged.size() - shared, switches);
    }
}

TEST(Recorder, ScopeBalancesCallsAndReturns)
{
    TraceBuffer buf;
    TraceRecorder rec(buf);
    {
        TraceScope outer(rec, 1);
        EXPECT_EQ(rec.depth(), 1u);
        outer.work(10);
        {
            TraceScope inner(rec, 2);
            EXPECT_EQ(rec.depth(), 2u);
            inner.branch(true);
        }
        EXPECT_EQ(rec.depth(), 1u);
    }
    EXPECT_EQ(rec.depth(), 0u);

    // Sequence: Call(1) Work Call(2) Branch Return Return.
    ASSERT_EQ(buf.size(), 6u);
    EXPECT_EQ(buf.at(0).kind(), EventKind::Call);
    EXPECT_EQ(buf.at(0).payload(), 1u);
    EXPECT_EQ(buf.at(1).kind(), EventKind::Work);
    EXPECT_EQ(buf.at(2).kind(), EventKind::Call);
    EXPECT_EQ(buf.at(3).kind(), EventKind::Branch);
    EXPECT_EQ(buf.at(4).kind(), EventKind::Return);
    EXPECT_EQ(buf.at(5).kind(), EventKind::Return);
}

TEST(Recorder, WithoutBufferRecordsNothingButBalances)
{
    TraceRecorder rec;
    {
        TraceScope outer(rec, 1);
        outer.work(10);
        outer.loadAt(0x1000);
        EXPECT_EQ(rec.depth(), 1u);
    }
    EXPECT_EQ(rec.depth(), 0u);

    // Assigning a recorder with a buffer starts recording.
    TraceBuffer buf;
    rec = TraceRecorder(buf);
    rec.call(2);
    rec.ret();
    EXPECT_EQ(buf.size(), 2u);
}

TEST(Recorder, WorkScaleMultipliesPayloads)
{
    TraceBuffer buf;
    TraceRecorder rec(buf, 3.0);
    rec.work(10);
    EXPECT_EQ(buf.at(0).payload(), 30u);
    EXPECT_NEAR(rec.workScale(), 3.0, 1e-9);
}

TEST(Recorder, ZeroWorkIsDropped)
{
    TraceBuffer buf;
    TraceRecorder rec(buf);
    rec.work(0);
    EXPECT_TRUE(buf.empty());
}

TEST(Recorder, MemoryEventsCarryAddresses)
{
    TraceBuffer buf;
    TraceRecorder rec(buf);
    rec.call(0);
    rec.loadAt(0x1234);
    rec.storeAt(0x5678);
    rec.ret();
    EXPECT_EQ(buf.at(1).kind(), EventKind::Load);
    EXPECT_EQ(buf.at(1).payload(), 0x1234u);
    EXPECT_EQ(buf.at(2).kind(), EventKind::Store);
    EXPECT_EQ(buf.at(2).payload(), 0x5678u);
}

TraceBuffer
makeThread(FunctionId fid, unsigned bursts)
{
    TraceBuffer buf;
    TraceRecorder rec(buf);
    rec.call(fid);
    for (unsigned i = 0; i < bursts; ++i) {
        rec.work(1000);
        rec.branch(i % 2 == 0);
    }
    rec.ret();
    return buf;
}

// The interleave properties, checked on server::legacyMerge, which
// reproduces the old offline merger's schedule.

TEST(Interleave, PreservesPerThreadEventOrder)
{
    const TraceBuffer a = makeThread(1, 40);
    const TraceBuffer b = makeThread(2, 25);

    const TraceBuffer merged =
        server::legacyMerge({&a, &b}, 5000, nullptr);

    // Partition merged events back per thread and compare.
    std::map<std::uint64_t, std::vector<std::uint64_t>> per_thread;
    std::uint64_t cur = ~0ull;
    for (std::size_t i = 0; i < merged.size(); ++i) {
        const TraceEvent e = merged.at(i);
        if (e.kind() == EventKind::Switch) {
            cur = e.payload();
            continue;
        }
        per_thread[cur].push_back(e.raw());
    }

    ASSERT_EQ(per_thread[0].size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(per_thread[0][i], a.at(i).raw());
    ASSERT_EQ(per_thread[1].size(), b.size());
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(per_thread[1][i], b.at(i).raw());
}

TEST(Interleave, EmitsMultipleSwitches)
{
    const TraceBuffer a = makeThread(1, 50);
    const TraceBuffer b = makeThread(2, 50);
    const TraceBuffer merged =
        server::legacyMerge({&a, &b}, 4000, nullptr);

    unsigned switches = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (merged.at(i).kind() == EventKind::Switch)
            ++switches;
    }
    // 100k instructions at ~4k/quantum: many switches.
    EXPECT_GE(switches, 10u);
}

TEST(Interleave, OnSwitchCallbackRuns)
{
    // The scheduler's own execution is a stub recorded once and
    // replayed after every Switch.
    const TraceBuffer a = makeThread(1, 10);
    TraceBuffer stub;
    {
        TraceRecorder rec(stub);
        TraceScope s(rec, 99);
        s.work(5);
    }
    const TraceBuffer merged = server::legacyMerge({&a}, 2000, &stub);

    unsigned switches = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (merged.at(i).kind() != EventKind::Switch)
            continue;
        ++switches;
        ASSERT_LT(i + stub.size(), merged.size());
        for (std::size_t j = 0; j < stub.size(); ++j)
            EXPECT_EQ(merged.at(i + 1 + j).raw(), stub.at(j).raw());
    }
    EXPECT_GE(switches, 2u);
}

TEST(Interleave, SingleThreadKeepsAllEvents)
{
    const TraceBuffer a = makeThread(5, 30);
    const TraceBuffer merged = server::legacyMerge({&a}, 1000, nullptr);

    std::vector<std::uint64_t> body;
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (merged.at(i).kind() != EventKind::Switch)
            body.push_back(merged.at(i).raw());
    }
    ASSERT_EQ(body.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(body[i], a.at(i).raw());
}

TEST(Interleave, IsDeterministic)
{
    const TraceBuffer a = makeThread(1, 30);
    const TraceBuffer b = makeThread(2, 30);
    const TraceBuffer m1 = server::legacyMerge({&a, &b}, 3000, nullptr);
    const TraceBuffer m2 = server::legacyMerge({&a, &b}, 3000, nullptr);
    ASSERT_EQ(m1.size(), m2.size());
    for (std::size_t i = 0; i < m1.size(); ++i)
        EXPECT_EQ(m1.at(i).raw(), m2.at(i).raw());
}

} // namespace
} // namespace cgp
