/**
 * @file
 * Tests for trace events, the recorder, and the interleaved merge
 * (server::legacyMerge).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "server/compat.hh"
#include "trace/events.hh"
#include "trace/recorder.hh"

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
