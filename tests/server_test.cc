/**
 * @file
 * Tests of the multi-core DB server model (src/server): turning the
 * server flag on for one single-stream core changes only the label
 * and the server block, sampling is single-stream only, the
 * legacy-interleave shim reproduces the frozen
 * schedules of the retired merger, scheduler fairness and starvation
 * bounds, Zipf-mix and think-time determinism, shared-L2 multi-owner
 * guards, and the SimResult server-stats serialization round trip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaigns.hh"
#include "harness/report.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"
#include "mem/hierarchy.hh"
#include "server/compat.hh"
#include "server/scheduler.hh"
#include "server/stats.hh"
#include "trace/recorder.hh"
#include "util/rng.hh"

namespace cgp
{
namespace
{

Workload
smokeWorkload()
{
    spec::SpecProgramSpec s;
    s.name = "server-test";
    s.functions = 40;
    s.hotFunctions = 20;
    s.workPerCall = 60.0;
    s.trainInstrs = 60'000;
    s.testInstrs = 20'000;
    return WorkloadFactory::buildSpec(s);
}

/** The config exercised by the golden contract: every subsystem on
 *  (CGP, D-combined, shared arbiter). */
SimConfig
fullConfig()
{
    return SimConfig::withIPlusD(DataPrefetchKind::Combined, true);
}

// ---------------------------------------------------------------
// N = 1 golden contract
// ---------------------------------------------------------------

TEST(ServerGolden, SingleStreamRunIsByteIdenticalToLegacyPath)
{
    const Workload w = smokeWorkload();

    const SimConfig legacy_cfg = fullConfig();
    const SimResult legacy = runSimulation(w, legacy_cfg);

    SimConfig srv_cfg = fullConfig();
    srv_cfg.server.enabled = true;
    srv_cfg.server.singleStream = true;
    srv_cfg.server.cores = 1;
    srv_cfg.server.sessions = 1;
    SimResult srv = runSimulation(w, srv_cfg);

    ASSERT_TRUE(srv.serverEnabled);
    // Both runs are one DbServer core on the same stream.  Normalize
    // the fields the server flag is allowed to change — the config
    // label carries the +srv suffix and the server block only exists
    // on the server run — then demand byte identity.
    srv.config = legacy.config;
    srv.serverEnabled = false;
    srv.server = server::ServerStats{};
    EXPECT_EQ(toJson(legacy).dump(2), toJson(srv).dump(2));
    EXPECT_TRUE(legacy == srv);
}

// ---------------------------------------------------------------
// Sampling: single-stream only
// ---------------------------------------------------------------

TEST(ServerSampling, AdmissionModeSamplingIsRejected)
{
    exp::PaperWorkloadBank bank;
    const Workload w = bank.resolve("wisc-prof");
    const SimConfig cfg = SimConfig::withSampling(
        SimConfig::withServer(
            SimConfig::withCgp(LayoutKind::PettisHansen, 4), 2, 4, 4),
        2000, 10000, 10000);
    EXPECT_THROW(runSimulation(w, cfg), std::invalid_argument);
}

// ---------------------------------------------------------------
// Legacy-interleave shim
// ---------------------------------------------------------------

TraceBuffer
queryTrace(FunctionId fid, unsigned works, std::uint32_t perWork)
{
    TraceBuffer buf;
    TraceRecorder rec(buf);
    TraceScope s(rec, fid);
    for (unsigned i = 0; i < works; ++i) {
        s.work(perWork);
        s.branch(i % 2 == 0);
    }
    return buf;
}

/**
 * Load a frozen schedule of the retired trace/interleave merger from
 * tests/golden/ ('#' comment lines, then one `<kind> <payload>` pair
 * per event).
 */
TraceBuffer
loadSchedule(const std::string &file)
{
    std::ifstream in(std::string(CGP_GOLDEN_DIR) + "/" + file);
    EXPECT_TRUE(in.good()) << "missing fixture " << file;
    TraceBuffer buf;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        unsigned kind = 0;
        std::uint64_t payload = 0;
        fields >> kind >> payload;
        EXPECT_FALSE(fields.fail()) << file << ": " << line;
        buf.append(TraceEvent::make(static_cast<EventKind>(kind),
                                    payload));
    }
    return buf;
}

void
expectSameEvents(const TraceBuffer &expected, const TraceBuffer &got)
{
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected.at(i).raw(), got.at(i).raw())
            << "event " << i;
    }
}

TEST(ServerCompat, ShimReproducesLegacyInterleaveExactly)
{
    const TraceBuffer a = queryTrace(1, 40, 500);
    const TraceBuffer b = queryTrace(2, 25, 900);
    const TraceBuffer c = queryTrace(3, 60, 300);
    const std::vector<const TraceBuffer *> threads = {&a, &b, &c};

    // The reference merger recorded this stub live at every switch;
    // the shim replays it pre-recorded.
    TraceBuffer stub;
    {
        TraceRecorder rec(stub);
        TraceScope s(rec, 7);
        s.work(60);
        s.branch(true);
        {
            TraceScope save(rec, 8);
            save.work(35);
        }
        s.work(20);
    }
    expectSameEvents(loadSchedule("interleave_three_with_stub.txt"),
                     server::legacyMerge(threads, 6000, &stub));
}

TEST(ServerCompat, ShimWithoutStubMatchesLegacyWithoutOnSwitch)
{
    const TraceBuffer a = queryTrace(1, 10, 400);
    const TraceBuffer b = queryTrace(2, 12, 350);
    expectSameEvents(loadSchedule("interleave_two_no_stub.txt"),
                     server::legacyMerge({&a, &b}, 2000, nullptr));
}

// ---------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------

server::ServerConfig
schedConfig(unsigned cores, unsigned sessions)
{
    server::ServerConfig c;
    c.enabled = true;
    c.cores = cores;
    c.sessions = sessions;
    c.thinkMeanCycles = 0.0; // everyone ready at once
    c.queriesPerSession = 1'000'000;
    return c;
}

TEST(ServerScheduler, EverySessionDispatchedWithinStarvationBound)
{
    const unsigned kSessions = 6;
    server::AdmissionScheduler sched(schedConfig(1, kSessions), 4);
    sched.wake(1);

    // Single core, all sessions ready: repeatedly dispatch and
    // requeue.  The double-FIFO bound: between two dispatches of one
    // session every other session runs at most once and at most one
    // new session is admitted, so no gap may exceed sessions + 1.
    std::map<std::uint64_t, int> last;
    const int kRounds = 200;
    for (int i = 0; i < kRounds; ++i) {
        server::ClientSession *s = sched.dequeue(1, 0);
        ASSERT_NE(s, nullptr);
        const auto it = last.find(s->id);
        if (it != last.end()) {
            EXPECT_LE(i - it->second, kSessions + 1)
                << "session " << s->id << " starved";
        }
        last[s->id] = i;
        sched.requeue(*s, 0);
    }
    EXPECT_EQ(last.size(), kSessions); // everyone ran
}

TEST(ServerScheduler, DrainingStopsAdmissionButFinishesRunning)
{
    server::ServerConfig cfg = schedConfig(1, 3);
    cfg.queriesPerSession = 0;
    cfg.totalQueries = 1;
    server::AdmissionScheduler sched(cfg, 4);
    sched.wake(1);

    server::ClientSession *running = sched.dequeue(1, 0);
    ASSERT_NE(running, nullptr);
    running->cursor = 10; // mid-query
    EXPECT_FALSE(sched.draining());

    sched.onQueryComplete(*running, 100);
    EXPECT_TRUE(sched.draining());

    // The remaining fresh sessions retire instead of dispatching —
    // one per dequeue poll, as an idle core polls once per cycle.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(sched.dequeue(101, 0), nullptr);
    EXPECT_TRUE(sched.allRetired());
    EXPECT_EQ(sched.queriesServed(), 1u);
}

TEST(ServerScheduler, LatenciesMeasureSubmitToCompletion)
{
    server::ServerConfig cfg = schedConfig(1, 1);
    server::AdmissionScheduler sched(cfg, 4);
    sched.wake(5); // think mean 0: submits at cycle 5
    server::ClientSession *s = sched.dequeue(5, 0);
    ASSERT_NE(s, nullptr);
    sched.onQueryComplete(*s, 905);
    ASSERT_EQ(sched.latencies().size(), 1u);
    EXPECT_EQ(sched.latencies()[0], 900u);
}

// ---------------------------------------------------------------
// Determinism of the stochastic inputs
// ---------------------------------------------------------------

TEST(ServerDeterminism, SessionStreamsReplayFromTheirSeed)
{
    const std::uint64_t base = 0x5e55;
    for (std::uint64_t id : {0ull, 1ull, 17ull}) {
        Rng a(server::AdmissionScheduler::sessionSeed(base, id));
        Rng b(server::AdmissionScheduler::sessionSeed(base, id));
        for (int i = 0; i < 100; ++i) {
            EXPECT_EQ(server::AdmissionScheduler::drawThink(a, 5e4),
                      server::AdmissionScheduler::drawThink(b, 5e4));
        }
    }
    // Different sessions get different streams.
    Rng a(server::AdmissionScheduler::sessionSeed(base, 0));
    Rng b(server::AdmissionScheduler::sessionSeed(base, 1));
    bool differ = false;
    for (int i = 0; i < 16 && !differ; ++i) {
        differ = server::AdmissionScheduler::drawThink(a, 5e4) !=
            server::AdmissionScheduler::drawThink(b, 5e4);
    }
    EXPECT_TRUE(differ);
}

TEST(ServerDeterminism, ZipfMixIsSeededAndSkewed)
{
    const std::size_t kQueries = 8;
    ZipfGenerator zipf(kQueries, 0.99);

    Rng a(42), b(42);
    std::vector<std::uint64_t> seq_a, seq_b;
    std::vector<std::uint64_t> counts(kQueries, 0);
    for (int i = 0; i < 4000; ++i) {
        seq_a.push_back(zipf.next(a));
        seq_b.push_back(zipf.next(b));
        ++counts[seq_a.back()];
    }
    EXPECT_EQ(seq_a, seq_b); // same seed, same mix
    // theta = 0.99 over 8 queries: rank 0 clearly dominates the tail.
    EXPECT_GT(counts[0], 2 * counts[kQueries - 1]);
}

TEST(ServerDeterminism, AdmissionRunsAreReproducible)
{
    const Workload w = smokeWorkload();
    SimConfig cfg = SimConfig::withServer(
        SimConfig::withCgp(LayoutKind::PettisHansen, 4), 2, 6, 3);
    cfg.server.quantumInstrs = 8000;
    cfg.server.thinkMeanCycles = 5000.0;

    const SimResult r1 = runSimulation(w, cfg);
    const SimResult r2 = runSimulation(w, cfg);
    EXPECT_TRUE(r1 == r2);
    EXPECT_EQ(toJson(r1).dump(2), toJson(r2).dump(2));

    ASSERT_TRUE(r1.serverEnabled);
    EXPECT_EQ(r1.server.cores, 2u);
    EXPECT_EQ(r1.server.perCore.size(), 2u);
    EXPECT_GE(r1.server.queriesServed, 3u);
    EXPECT_GT(r1.server.binds, 0u);
}

// ---------------------------------------------------------------
// Shared L2 multi-owner guards
// ---------------------------------------------------------------

TEST(ServerSharedL2, TwoBorrowersTickAndFinalizeOnce)
{
    HierarchyConfig cfg;
    SharedL2 shared(cfg.l2);
    MemoryHierarchy m0(cfg, shared, 0);
    MemoryHierarchy m1(cfg, shared, 1);
    EXPECT_FALSE(m0.ownsL2());
    EXPECT_FALSE(m1.ownsL2());
    EXPECT_EQ(&m0.l2(), &m1.l2());
    EXPECT_EQ(&m0.port(), &m1.port());

    // Both cores tick the same cycle — the SharedL2 guard makes the
    // second call a no-op rather than double-draining fills.
    for (Cycle now = 1; now <= 64; ++now) {
        m0.tick(now);
        m1.tick(now);
    }

    // Borrowers never finalize the L2; the owner does, idempotently.
    m0.finalize();
    m1.finalize();
    shared.finalize();
    shared.finalize();
    const auto misses = m0.l2().demandMisses();
    EXPECT_EQ(misses, m1.l2().demandMisses());
}

TEST(ServerSharedL2, PortAttributesWaitsPerRequester)
{
    SharedL2 shared(CacheConfig{"l2", 1024 * 1024, 4, 32, 16});
    MemoryPort &port = shared.port();
    // Two requesters hammer the same cycle: the FIFO serializes them
    // and charges the queueing delay to the right core.
    port.request(10, 0);
    port.request(10, 1);
    port.request(10, 1);
    EXPECT_EQ(port.requestsBy(0), 1u);
    EXPECT_EQ(port.requestsBy(1), 2u);
    EXPECT_EQ(port.waitCyclesBy(0) + port.waitCyclesBy(1),
              port.waitCycles());
    EXPECT_GT(port.waitCyclesBy(1), 0u);
}

// ---------------------------------------------------------------
// Stats plumbing
// ---------------------------------------------------------------

TEST(ServerStats, PercentileIsNearestRank)
{
    using server::percentile;
    EXPECT_EQ(percentile({}, 50.0), 0u);
    const std::vector<std::uint64_t> one = {7};
    EXPECT_EQ(percentile(one, 50.0), 7u);
    EXPECT_EQ(percentile(one, 99.0), 7u);
    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 1; i <= 100; ++i)
        v.push_back(i * 10);
    EXPECT_EQ(percentile(v, 50.0), 500u);
    EXPECT_EQ(percentile(v, 95.0), 950u);
    EXPECT_EQ(percentile(v, 99.0), 990u);
    EXPECT_EQ(percentile(v, 100.0), 1000u);
}

TEST(ServerStats, PercentileEdgeCasesAreTotal)
{
    using server::percentile;
    // Empty sample: 0 for any q, finite or not.
    EXPECT_EQ(percentile({}, 0.0), 0u);
    EXPECT_EQ(percentile({}, 100.0), 0u);
    EXPECT_EQ(percentile({}, std::nan("")), 0u);

    // Single sample: every q selects it.
    const std::vector<std::uint64_t> one = {42};
    EXPECT_EQ(percentile(one, 0.0), 42u);
    EXPECT_EQ(percentile(one, 100.0), 42u);
    EXPECT_EQ(percentile(one, std::nan("")), 42u);

    // Boundaries: q = 0 is the minimum, q = 100 the maximum, and
    // out-of-range / non-finite q never reaches the float-to-int
    // cast (UB for NaN) — it is clamped (NaN is treated as 0).
    const std::vector<std::uint64_t> v = {10, 20, 30, 40};
    EXPECT_EQ(percentile(v, 0.0), 10u);
    EXPECT_EQ(percentile(v, 100.0), 40u);
    EXPECT_EQ(percentile(v, -5.0), 10u);
    EXPECT_EQ(percentile(v, 250.0), 40u);
    EXPECT_EQ(percentile(v, std::nan("")), 10u);
    EXPECT_EQ(
        percentile(v, std::numeric_limits<double>::infinity()),
        10u);
}

TEST(ServerDrain, TotalQueriesFloorStopsTheRun)
{
    // The drain path end to end: with a totalQueries floor the
    // scheduler stops admitting once the floor is reached, running
    // queries finish, and the machine winds down.  The floor is a
    // floor — queries in flight at the drain transition complete,
    // so the served count may exceed it by at most the core count.
    const Workload w = smokeWorkload();
    const SimConfig cfg =
        SimConfig::withServer(SimConfig::o5(), 2, 4, 3);
    const SimResult r = runSimulation(w, cfg);
    ASSERT_TRUE(r.serverEnabled);
    EXPECT_GE(r.server.queriesServed, 3u);
    EXPECT_LE(r.server.queriesServed, 3u + r.server.cores);
    EXPECT_GT(r.cycles, 0u);
    // Latency percentiles come from the served set only.
    EXPECT_GT(r.server.latencyP50, 0u);
    EXPECT_LE(r.server.latencyP50, r.server.latencyP99);
}

TEST(ServerStats, SimResultServerBlockRoundTripsThroughJson)
{
    SimResult r;
    r.workload = "w";
    r.config = "c+srv2c8s";
    r.cycles = 123456;
    r.instrs = 98765;
    r.serverEnabled = true;
    r.server.cores = 2;
    r.server.sessions = 8;
    r.server.cycles = 123456;
    r.server.queriesServed = 17;
    r.server.binds = 40;
    r.server.latencyP50 = 1000;
    r.server.latencyP95 = 5000;
    r.server.latencyP99 = 9000;
    r.server.portWaitCycles = 321;
    for (unsigned i = 0; i < 2; ++i) {
        server::ServerCoreStats c;
        c.cycles = 123456;
        c.instrs = 4000 + i;
        c.idleCycles = 100 * (i + 1);
        c.icacheAccesses = 11;
        c.icacheMisses = 2;
        c.dcacheAccesses = 22;
        c.dcacheMisses = 3;
        c.busLines = 44;
        c.portWaitCycles = 5;
        c.queries = 8 + i;
        c.binds = 20 + i;
        r.server.perCore.push_back(c);
    }

    const SimResult back = simResultFromJson(toJson(r));
    EXPECT_TRUE(back == r);
    EXPECT_EQ(toJson(back).dump(2), toJson(r).dump(2));

    // A legacy result keeps its byte-identical JSON: no server key.
    SimResult plain;
    plain.workload = "w";
    plain.config = "c";
    EXPECT_EQ(toJson(plain).find("server"), nullptr);
    EXPECT_FALSE(simResultFromJson(toJson(plain)).serverEnabled);
}

} // anonymous namespace
} // namespace cgp
