/**
 * @file
 * Unit tests for the fault-injection subsystem and the hardening it
 * exists to exercise: the injector's deterministic schedules and
 * compiled-in crash points, the fail-soft prefetcher wrapper, and the
 * campaign chaos loop.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "codegen/layout.hh"
#include "cpu/core.hh"
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

namespace cgp
{
namespace
{

// ---------------------------------------------------------------
// FaultInjector

TEST(FaultInjector, RegistryKnowsTheCompiledInPoints)
{
    // The prefetchers' points, then the campaign engine's
    // (exp/rundir, exp/engine, exp/integrity, exp/artifact).
    const std::vector<std::string> want = {
        "prefetch.issue", "prefetch.train", "exp.pre_record",
        "exp.record",     "exp.job",        "exp.artifact_write",
        "exp.pre_bench"};
    EXPECT_EQ(fault::FaultInjector::crashPoints(), want);
    for (const std::string &point : want)
        EXPECT_TRUE(fault::FaultInjector::isRegistered(point));
    // The storage engine has no crash points.
    EXPECT_FALSE(fault::FaultInjector::isRegistered("wal.pre_force"));
    EXPECT_FALSE(fault::FaultInjector::isRegistered("volume.write"));
    EXPECT_FALSE(fault::FaultInjector::isRegistered("no.such.point"));
}

TEST(FaultInjector, FiresOnTheScheduledHitOnly)
{
    fault::FaultInjector inj;
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::TransientIo;
    spec.afterHits = 2;
    spec.count = 2;
    inj.arm("exp.job", spec);

    EXPECT_FALSE(inj.hit("exp.job").has_value()); // hit 1
    EXPECT_FALSE(inj.hit("exp.job").has_value()); // hit 2
    EXPECT_EQ(inj.hit("exp.job"),
              fault::FaultKind::TransientIo); // hit 3 fires
    EXPECT_EQ(inj.hit("exp.job"),
              fault::FaultKind::TransientIo); // hit 4 fires
    EXPECT_FALSE(inj.hit("exp.job").has_value()); // budget spent
    EXPECT_EQ(inj.hitCount("exp.job"), 5u);
    ASSERT_EQ(inj.fired().size(), 2u);
    EXPECT_EQ(inj.fired()[0].hitNo, 3u);
}

TEST(FaultInjector, CrashKindThrowsFromTheHit)
{
    fault::FaultInjector inj;
    inj.arm("exp.job", {fault::FaultKind::Crash, 0, 1});
    try {
        inj.hit("exp.job");
        FAIL() << "expected CrashInjected";
    } catch (const fault::CrashInjected &e) {
        EXPECT_EQ(e.point(), "exp.job");
    }
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

/** Two tiny programs x two configs. */
exp::CampaignSpec
chaosUnitCampaign()
{
    exp::CampaignSpec campaign;
    campaign.name = "chaos-unit";
    campaign.workloads = {"chaos-a", "chaos-b"};
    campaign.explicitConfigs = {
        SimConfig::o5Om(),
        SimConfig::withCgp(LayoutKind::PettisHansen, 4)};
    return campaign;
}

exp::InMemoryProvider
chaosUnitProvider()
{
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
    return exp::InMemoryProvider(
        {make("chaos-a", 40), make("chaos-b", 60)});
}

TEST(ChaosLoop, ConvergesByteIdenticalThroughKillsAndCorruption)
{
    const exp::CampaignSpec campaign = chaosUnitCampaign();
    exp::InMemoryProvider provider = chaosUnitProvider();

    exp::ChaosLoopConfig config;
    config.cycles = 25;
    config.threads = 2;
    config.dir = (std::filesystem::temp_directory_path() /
                  "cgp-chaos-unit")
                     .string();

    exp::ChaosLoopHarness harness(campaign, provider, config);
    const exp::ChaosLoopResult result = harness.run();

    EXPECT_EQ(result.cycles, 25u);
    EXPECT_TRUE(result.identical) << result.mismatch;
    // The audit is vacuous unless the loop actually hurt the run:
    // faults drawn from the hits a resume makes must fire in at
    // least half the cycles, not only while jobs are still pending.
    EXPECT_GE(2 * result.crashes, result.cycles);
    EXPECT_GE(result.corruptions, 1u);
    // The next resume reads every job file and the manifest, so each
    // damaged one is quarantined, in crashed cycles too (torn writes
    // add more).
    EXPECT_GE(result.quarantined, result.corruptions);
    std::filesystem::remove_all(config.dir);

    exp::ChaosLoopConfig bad;
    EXPECT_THROW(
        exp::ChaosLoopHarness(campaign, provider, bad).run(),
        std::invalid_argument);
}

TEST(ChaosLoop, DamagesOnlyFilesAResumeMustQuarantine)
{
    // One thread fixes the fault schedule.  At this seed a cycle
    // that dies at its lock write reads no job file, and the next
    // damage draw picks the job file an earlier cycle damaged: the
    // loop must pick only intact files, so every counted corruption
    // is one a resume quarantines.
    const exp::CampaignSpec campaign = chaosUnitCampaign();
    exp::InMemoryProvider provider = chaosUnitProvider();

    exp::ChaosLoopConfig config;
    config.cycles = 25;
    config.threads = 1;
    config.seed = 19;
    config.dir = (std::filesystem::temp_directory_path() /
                  "cgp-chaos-intact")
                     .string();
    const exp::ChaosLoopResult result =
        exp::ChaosLoopHarness(campaign, provider, config).run();
    EXPECT_TRUE(result.identical) << result.mismatch;
    EXPECT_GE(result.corruptions, 1u);
    EXPECT_GE(result.quarantined, result.corruptions);
    std::filesystem::remove_all(config.dir);
}

TEST(ChaosLoop, CountsSimulationsThatFinishedInCrashedCycles)
{
    // Without corruption every job is simulated once for its result,
    // plus once more for each crash between a finished simulation and
    // its job file (exp.pre_record): at least one per job and at most
    // one more per crash, whichever cycle ran it.  A cycle that dies
    // after recording a job still ran it.
    const exp::CampaignSpec campaign = chaosUnitCampaign();
    exp::InMemoryProvider provider = chaosUnitProvider();
    const std::size_t jobs = exp::expandJobs(campaign).size();

    exp::ChaosLoopConfig config;
    config.cycles = 3;
    config.threads = 1; // one fault schedule per seed on every host
    config.corruptProbability = 0.0;
    config.dir = (std::filesystem::temp_directory_path() /
                  "cgp-chaos-count")
                     .string();
    unsigned crashes = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        config.seed = seed;
        const exp::ChaosLoopResult result =
            exp::ChaosLoopHarness(campaign, provider, config).run();
        EXPECT_TRUE(result.identical) << seed << ": " << result.mismatch;
        EXPECT_GE(result.executedJobs, jobs) << seed;
        EXPECT_LE(result.executedJobs, jobs + result.crashes) << seed;
        crashes += result.crashes;
    }
    std::filesystem::remove_all(config.dir);
    EXPECT_GE(crashes, 8u);
}

} // namespace
} // namespace cgp
