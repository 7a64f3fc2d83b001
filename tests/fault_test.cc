/**
 * @file
 * Unit tests for the fault-injection subsystem and the hardening it
 * exists to exercise: the injector's deterministic schedules, WAL
 * per-record checksums and torn-write detection, transient-I/O retry
 * with backoff, the transaction table's rejection of bogus ids, the
 * leveled log ring buffer, and the fail-soft prefetcher wrapper.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>

#include "codegen/layout.hh"
#include "cpu/core.hh"
#include "db/heapfile.hh"
#include "db/recovery.hh"
#include "db/txn.hh"
#include "exp/chaosloop.hh"
#include "exp/engine.hh"
#include "fault/fault.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"
#include "mem/hierarchy.hh"
#include "prefetch/failsoft.hh"
#include "prefetch/nextline.hh"
#include "sample/controller.hh"
#include "trace/expand.hh"
#include "util/logging.hh"

namespace cgp
{
namespace
{

// ---------------------------------------------------------------
// FaultInjector

TEST(FaultInjector, RegistryKnowsTheCompiledInPoints)
{
    const auto &points = fault::FaultInjector::crashPoints();
    EXPECT_GE(points.size(), 8u);
    EXPECT_TRUE(fault::FaultInjector::isRegistered("wal.pre_force"));
    EXPECT_TRUE(fault::FaultInjector::isRegistered("prefetch.issue"));
    // The campaign engine's crash points (exp/rundir, exp/engine).
    EXPECT_TRUE(fault::FaultInjector::isRegistered("exp.job"));
    EXPECT_TRUE(fault::FaultInjector::isRegistered("exp.mid_record"));
    EXPECT_TRUE(
        fault::FaultInjector::isRegistered("exp.artifact_write"));
    EXPECT_TRUE(fault::FaultInjector::isRegistered("exp.pre_bench"));
    EXPECT_FALSE(fault::FaultInjector::isRegistered("no.such.point"));
}

TEST(FaultInjector, FiresOnTheScheduledHitOnly)
{
    fault::FaultInjector inj;
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::TransientIo;
    spec.afterHits = 2;
    spec.count = 2;
    inj.arm("volume.write", spec);

    EXPECT_FALSE(inj.hit("volume.write").has_value()); // hit 1
    EXPECT_FALSE(inj.hit("volume.write").has_value()); // hit 2
    EXPECT_EQ(inj.hit("volume.write"),
              fault::FaultKind::TransientIo); // hit 3 fires
    EXPECT_EQ(inj.hit("volume.write"),
              fault::FaultKind::TransientIo); // hit 4 fires
    EXPECT_FALSE(inj.hit("volume.write").has_value()); // budget spent
    EXPECT_EQ(inj.hitCount("volume.write"), 5u);
    ASSERT_EQ(inj.fired().size(), 2u);
    EXPECT_EQ(inj.fired()[0].hitNo, 3u);
}

TEST(FaultInjector, CrashKindThrowsFromTheHit)
{
    fault::FaultInjector inj;
    inj.arm("pool.flush", {fault::FaultKind::Crash, 0, 1});
    try {
        inj.hit("pool.flush");
        FAIL() << "expected CrashInjected";
    } catch (const fault::CrashInjected &e) {
        EXPECT_EQ(e.point(), "pool.flush");
    }
}

TEST(FaultInjector, ContextInjectorWinsOverGlobal)
{
    fault::FaultInjector global_inj;
    fault::FaultInjector local_inj;
    fault::ScopedGlobalInjector guard(global_inj);
    local_inj.arm("volume.read",
                  {fault::FaultKind::TransientIo, 0, 1});

    EXPECT_EQ(fault::hit(&local_inj, "volume.read"),
              fault::FaultKind::TransientIo);
    // The global injector never saw the hit.
    EXPECT_EQ(global_inj.hitCount("volume.read"), 0u);
    // Without a preferred injector the global one is consulted.
    EXPECT_FALSE(fault::hit("volume.read").has_value());
    EXPECT_EQ(global_inj.hitCount("volume.read"), 1u);
}

// ---------------------------------------------------------------
// WAL checksums and torn writes

struct WalFixture
{
    FunctionRegistry reg;
    TraceBuffer buf;
    db::DbContext ctx{reg, buf};
    db::WriteAheadLog log{ctx};
};

TEST(WalChecksum, AppendedRecordsValidate)
{
    WalFixture fx;
    const std::uint8_t redo[] = {1, 2, 3, 4};
    const std::uint8_t undo[] = {9, 8};
    fx.log.append(1, db::LogRecordType::Begin);
    fx.log.append(1, db::LogRecordType::Insert, 0, 0, redo, 4);
    fx.log.append(1, db::LogRecordType::Update, 0, 0, redo, 4, undo,
                  2);
    for (const auto &r : fx.log.records())
        EXPECT_TRUE(db::WriteAheadLog::checksumValid(r))
            << "lsn " << r.lsn;
}

TEST(WalChecksum, TamperingInvalidatesTheRecord)
{
    WalFixture fx;
    const std::uint8_t redo[] = {1, 2, 3, 4};
    fx.log.append(7, db::LogRecordType::Insert, 0, 0, redo, 4);
    db::LogRecord r = fx.log.records().back();
    EXPECT_TRUE(db::WriteAheadLog::checksumValid(r));
    r.payload[2] ^= 0xff;
    EXPECT_FALSE(db::WriteAheadLog::checksumValid(r));
    r.payload[2] ^= 0xff;
    r.txn = 8;
    EXPECT_FALSE(db::WriteAheadLog::checksumValid(r));
}

TEST(WalChecksum, TornRecordReadsBackInvalid)
{
    WalFixture fx;
    const std::uint8_t redo[] = {1, 2, 3, 4, 5, 6};
    const db::Lsn lsn =
        fx.log.append(3, db::LogRecordType::Insert, 0, 0, redo, 6);
    fx.log.tearRecord(lsn);
    EXPECT_FALSE(
        db::WriteAheadLog::checksumValid(fx.log.records().back()));

    // A payload-less record tears too (checksum flip).
    const db::Lsn bare = fx.log.append(3, db::LogRecordType::Commit);
    fx.log.tearRecord(bare);
    EXPECT_FALSE(
        db::WriteAheadLog::checksumValid(fx.log.records().back()));
}

TEST(WalForce, TruncateToDurableDropsTheVolatileTail)
{
    WalFixture fx;
    const std::uint8_t redo[] = {1};
    fx.log.append(1, db::LogRecordType::Begin);
    const db::Lsn forced =
        fx.log.append(1, db::LogRecordType::Insert, 0, 0, redo, 1);
    fx.log.force(forced);
    fx.log.append(1, db::LogRecordType::Commit); // never forced
    EXPECT_EQ(fx.log.records().size(), 3u);

    fx.log.truncateToDurable();
    EXPECT_EQ(fx.log.records().size(), 2u);
    EXPECT_EQ(fx.log.tailLsn(), forced + 1);
}

TEST(WalForce, TransientErrorsAreRetriedWithBackoff)
{
    WalFixture fx;
    fault::FaultInjector inj;
    fx.ctx.fault = &inj;
    inj.arm("wal.pre_force", {fault::FaultKind::TransientIo, 0, 3});

    const db::Lsn lsn = fx.log.append(1, db::LogRecordType::Commit);
    fx.log.force(lsn); // three transient errors, then success
    EXPECT_EQ(fx.log.durableLsn(), lsn);
    EXPECT_EQ(fx.log.forceRetries(), 3u);
}

TEST(WalForce, PersistentTransientErrorEventuallyGivesUp)
{
    WalFixture fx;
    fault::FaultInjector inj;
    fx.ctx.fault = &inj;
    inj.arm("wal.pre_force", {fault::FaultKind::TransientIo, 0, 99});

    const db::Lsn lsn = fx.log.append(1, db::LogRecordType::Commit);
    EXPECT_THROW(fx.log.force(lsn), fault::TransientIoError);
    EXPECT_EQ(fx.log.durableLsn(), 0u);
}

// ---------------------------------------------------------------
// Buffer-pool transient-I/O retry

TEST(PoolRetry, TransientVolumeErrorsAreAbsorbed)
{
    WalFixture fx;
    db::Volume vol(fx.ctx);
    const db::PageId pid = vol.allocPage();

    fault::FaultInjector inj;
    fx.ctx.fault = &inj;
    inj.arm("volume.read", {fault::FaultKind::TransientIo, 0, 2});

    db::BufferPool pool(fx.ctx, vol, 4);
    std::uint8_t *frame = pool.fix(pid); // retried twice, then read
    EXPECT_NE(frame, nullptr);
    EXPECT_EQ(pool.ioRetries(), 2u);
    pool.unfix(pid, false);
}

// ---------------------------------------------------------------
// Transaction table

TEST(TxnTable, UnknownAndFinishedIdsAreRejected)
{
    WalFixture fx;
    db::LockManager locks(fx.ctx);
    db::TransactionManager txns(fx.ctx, locks, fx.log);

    EXPECT_FALSE(txns.commit(42)); // never begun
    EXPECT_FALSE(txns.abort(42));

    const db::TxnId t = txns.begin();
    EXPECT_TRUE(txns.isActive(t));
    EXPECT_EQ(txns.stateOf(t), db::TxnState::Active);
    EXPECT_TRUE(txns.commit(t));
    EXPECT_EQ(txns.stateOf(t), db::TxnState::Committed);
    EXPECT_FALSE(txns.commit(t)); // double commit
    EXPECT_FALSE(txns.abort(t));  // abort after commit
    EXPECT_EQ(txns.active(), 0u);

    const db::TxnId u = txns.begin();
    EXPECT_TRUE(txns.abort(u));
    EXPECT_EQ(txns.stateOf(u), db::TxnState::Aborted);
    EXPECT_FALSE(txns.abort(u)); // double abort
    EXPECT_FALSE(txns.stateOf(99).has_value());
}

TEST(TxnTable, RuntimeAbortRollsBackThroughTheBoundPool)
{
    WalFixture fx;
    db::Volume vol(fx.ctx);
    db::LockManager locks(fx.ctx);
    db::TransactionManager txns(fx.ctx, locks, fx.log);
    db::BufferPool pool(fx.ctx, vol, 8);
    txns.bindPool(&pool);
    db::Schema schema{{{"id", db::ColumnType::Int32, 4},
                       {"payload", db::ColumnType::Char, 16}}};
    db::HeapFile file(fx.ctx, pool, vol, locks, fx.log, &schema);

    auto row = [&](std::int32_t id, const std::string &s) {
        db::Tuple t(&schema);
        t.setInt(0, id);
        t.setString(1, s);
        return t;
    };

    const db::TxnId keeper = txns.begin();
    const db::Rid kept = file.createRec(keeper, row(1, "keep"));
    txns.commit(keeper);

    const db::TxnId loser = txns.begin();
    const db::Rid gone = file.createRec(loser, row(2, "gone"));
    file.updateRec(loser, kept, row(1, "clobbered"));
    txns.abort(loser);

    // The loser's insert is tombstoned and its update undone,
    // in memory, right now — not only after a restart.
    std::uint8_t *frame = pool.fix(gone.page);
    db::SlottedPage page(frame);
    EXPECT_EQ(page.read(gone.slot), nullptr);
    pool.unfix(gone.page, false);

    frame = pool.fix(kept.page);
    db::SlottedPage kept_page(frame);
    const db::Tuple back(&schema, kept_page.read(kept.slot));
    EXPECT_EQ(back.getString(1), "keep");
    pool.unfix(kept.page, false);
}

// ---------------------------------------------------------------
// Logging levels and the ring buffer

TEST(Logging, RingRecordsFilteredLevelsToo)
{
    clearRecentEvents();
    const LogLevel prev = logLevel();
    setLogLevel(LogLevel::Error); // print nothing below Error
    cgp_debug("quiet debug ", 1);
    cgp_inform("quiet info");
    cgp_warn("quiet warn");
    cgp_error("loud error");
    setLogLevel(prev);

    const auto events = recentEvents();
    ASSERT_GE(events.size(), 4u);
    const auto &tail4 = events[events.size() - 4];
    EXPECT_EQ(tail4.level, LogLevel::Debug);
    EXPECT_NE(tail4.message.find("quiet debug 1"), std::string::npos);
    EXPECT_EQ(events.back().level, LogLevel::Error);
    EXPECT_NE(events.back().message.find("loud error"),
              std::string::npos);
    // Sequence numbers increase monotonically.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GT(events[i].seq, events[i - 1].seq);
}

TEST(Logging, RingKeepsOnlyTheLastNEvents)
{
    setLogRingCapacity(4);
    const LogLevel prev = logLevel();
    setLogLevel(LogLevel::Error); // keep the test run quiet
    for (int i = 0; i < 10; ++i)
        cgp_inform("event ", i);
    setLogLevel(prev);

    const auto events = recentEvents();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_NE(events[0].message.find("event 6"), std::string::npos);
    EXPECT_NE(events[3].message.find("event 9"), std::string::npos);

    setLogRingCapacity(256); // restore the default for other tests
}

// ---------------------------------------------------------------
// Fail-soft prefetcher and simulator degradation

TEST(FailSoft, PrefetcherFaultDegradesToNoPrefetchNotACrash)
{
    CacheConfig cache_cfg;
    cache_cfg.name = "l1i";
    Cache l1i(cache_cfg, nullptr, nullptr);
    auto inner = std::make_unique<NextNLinePrefetcher>(l1i, 2);
    FailSoftPrefetcher pf(std::move(inner));

    fault::FaultInjector inj;
    fault::ScopedGlobalInjector guard(inj);
    inj.arm("prefetch.issue", {fault::FaultKind::TransientIo, 1, 1});

    pf.onFetchLine(0x1000, 1); // healthy
    EXPECT_FALSE(pf.degraded());
    pf.onFetchLine(0x2000, 2); // fault fires; absorbed
    EXPECT_TRUE(pf.degraded());
    EXPECT_FALSE(pf.reason().empty());
    EXPECT_STREQ(pf.name(), "none (degraded)");
    pf.onFetchLine(0x3000, 3); // no-op now, must not throw
}

TEST(FailSoft, SimulationSurvivesAnInjectedPrefetchFault)
{
    fault::FaultInjector inj;
    fault::ScopedGlobalInjector guard(inj);
    inj.arm("prefetch.issue", {fault::FaultKind::TransientIo, 10, 1});

    spec::SpecProgramSpec spec;
    spec.name = "fault-proxy";
    spec.functions = 40;
    spec.hotFunctions = 20;
    spec.workPerCall = 60.0;
    spec.trainInstrs = 60'000;
    spec.testInstrs = 20'000;
    const Workload wl = WorkloadFactory::buildSpec(spec);

    const SimResult r = runSimulation(
        wl, SimConfig::withNL(LayoutKind::Original, 4));

    EXPECT_TRUE(r.prefetchDegraded);
    EXPECT_FALSE(r.degradedReason.empty());
    EXPECT_GT(r.instrs, 0u); // the run completed regardless

    // The same run with nothing armed stays healthy.
    inj.disarmAll();
    const SimResult clean = runSimulation(
        wl, SimConfig::withNL(LayoutKind::Original, 4));
    EXPECT_FALSE(clean.prefetchDegraded);
}

/** An NL engine whose warming hook faults. */
class WarmingFaultPrefetcher : public NextNLinePrefetcher
{
  public:
    using NextNLinePrefetcher::NextNLinePrefetcher;

    void
    setWarming(bool) override
    {
        throw std::runtime_error("warming hook fault");
    }
};

TEST(FailSoft, WarmingFaultDegradesInsteadOfAborting)
{
    spec::SpecProgramSpec spec;
    spec.name = "warm-fault-proxy";
    spec.functions = 40;
    spec.hotFunctions = 20;
    spec.workPerCall = 60.0;
    spec.trainInstrs = 60'000;
    spec.testInstrs = 20'000;
    const Workload wl = WorkloadFactory::buildSpec(spec);
    const SimConfig cfg = SimConfig::withSampling(
        SimConfig::withNL(LayoutKind::Original, 4), 1000, 5000, 5000);

    const CodeImage image =
        LayoutBuilder(*wl.registry).build(cfg.layout, {});
    InstructionExpander stream(*wl.registry, image, *wl.trace);
    MemoryHierarchy mem(cfg.mem);
    FailSoftPrefetcher pf(
        std::make_unique<WarmingFaultPrefetcher>(mem.l1i(), 4));
    Core core(stream, mem, &pf, cfg.core);

    // The sampler's first fast-forward calls setWarming(true): the
    // fault is absorbed and the run completes without prefetch.
    const sample::SampledStats stats = sample::runSampled(
        core, mem, stream, cfg.sample, sample::CheckpointParts{},
        wl.name, cfg.describe());
    EXPECT_TRUE(pf.degraded());
    EXPECT_NE(pf.reason().find("warming hook fault"),
              std::string::npos);
    EXPECT_GT(stats.windows, 0u);
    EXPECT_GT(core.committedInstrs(), 0u);
}

// ---------------------------------------------------------------
// Chaos loop: the kill/resume/corrupt audit over the campaign
// engine (exp/chaosloop), on a tiny in-memory campaign.

TEST(ChaosLoop, ConvergesByteIdenticalThroughKillsAndCorruption)
{
    exp::CampaignSpec campaign;
    campaign.name = "chaos-unit";
    campaign.workloads = {"chaos-a", "chaos-b"};
    campaign.explicitConfigs = {
        SimConfig::o5Om(),
        SimConfig::withCgp(LayoutKind::PettisHansen, 4)};

    auto make = [](const char *name, unsigned funcs) {
        spec::SpecProgramSpec s;
        s.name = name;
        s.functions = funcs;
        s.hotFunctions = funcs / 2;
        s.workPerCall = 50.0;
        s.trainInstrs = 60'000;
        s.testInstrs = 15'000;
        return WorkloadFactory::buildSpec(s);
    };
    exp::InMemoryProvider provider(
        {make("chaos-a", 40), make("chaos-b", 60)});

    exp::ChaosLoopConfig config;
    config.cycles = 25;
    config.threads = 2;
    config.retries = 2;
    config.dir = (std::filesystem::temp_directory_path() /
                  "cgp-chaos-unit")
                     .string();

    exp::ChaosLoopHarness harness(campaign, provider, config);
    const exp::ChaosLoopResult result = harness.run();

    EXPECT_EQ(result.cycles, 25u);
    EXPECT_TRUE(result.identical) << result.mismatch;
    // The audit is vacuous unless the loop actually hurt the run.
    EXPECT_GE(result.crashes, 1u);
    EXPECT_GE(result.corruptions, 1u);
    EXPECT_GE(result.quarantined, 1u);
    std::filesystem::remove_all(config.dir);

    exp::ChaosLoopConfig bad;
    EXPECT_THROW(
        exp::ChaosLoopHarness(campaign, provider, bad).run(),
        std::invalid_argument);
}

} // namespace
} // namespace cgp
