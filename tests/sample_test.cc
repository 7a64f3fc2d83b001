/**
 * @file
 * Statistical validation of sampled simulation (src/sample): the
 * estimator math, accuracy of sampled estimates against full-detail
 * ground truth across several workload seeds/phases, determinism
 * across engine thread counts, the deliberately-unwarmed
 * perturbation self-check, the >= 5x cycle-loop speedup bar, and
 * warm-state checkpoints — in-memory round trip, identity-mismatch
 * re-warming, the sealed run-dir store, and corruption quarantine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "codegen/layout.hh"
#include "cpu/core.hh"
#include "dprefetch/factory.hh"
#include "exp/checkpoint.hh"
#include "exp/engine.hh"
#include "exp/integrity.hh"
#include "harness/report.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cghc.hh"
#include "prefetch/cgp.hh"
#include "sample/checkpoint.hh"
#include "sample/estimator.hh"
#include "trace/expand.hh"
#include "util/rng.hh"

namespace cgp
{
namespace
{

namespace fs = std::filesystem;

// ---------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------

/** A deterministic SPEC-proxy workload; the parameters select the
 *  phase structure, so varying them is the suite's "seed" axis. */
Workload
proxyWorkload(const std::string &name, unsigned functions,
              double workPerCall, std::uint64_t instrs)
{
    spec::SpecProgramSpec s;
    s.name = name;
    s.functions = functions;
    s.hotFunctions = functions / 2;
    s.workPerCall = workPerCall;
    s.trainInstrs = instrs;
    s.testInstrs = instrs / 4;
    return WorkloadFactory::buildSpec(s, 1.0);
}

double
truthCpi(const SimResult &r)
{
    return r.instrs == 0 ? 0.0
                         : static_cast<double>(r.cycles)
            / static_cast<double>(r.instrs);
}

double
truthL1i(const SimResult &r)
{
    return r.icacheAccesses == 0
        ? 0.0
        : static_cast<double>(r.icacheMisses)
            / static_cast<double>(r.icacheAccesses);
}

double
truthL1d(const SimResult &r)
{
    return r.dcacheAccesses == 0
        ? 0.0
        : static_cast<double>(r.dcacheMisses)
            / static_cast<double>(r.dcacheAccesses);
}

/** 5% relative-error ceiling, with an absolute floor for rates so
 *  close to zero that 5% of them is below measurement granularity. */
::testing::AssertionResult
within5Percent(double estimate, double truth)
{
    const double abs_err = std::abs(estimate - truth);
    const double rel =
        truth == 0.0 ? 0.0 : abs_err / std::abs(truth);
    if (rel <= 0.05 || abs_err <= 0.005)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "estimate " << estimate << " vs truth " << truth
        << " (rel err " << rel * 100.0 << "%)";
}

/** CI containment with an absolute floor: for rates near zero a
 *  single miss inside one window already moves the per-window
 *  observation by more than the rate being measured, so the
 *  interval degenerates and containment is only demanded up to
 *  that one-miss granularity. */
::testing::AssertionResult
containsOrNegligible(const sample::SampledEstimate &e, double truth)
{
    if (e.contains(truth) || std::abs(e.mean - truth) <= 0.005)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "truth " << truth << " outside [" << e.ciLow << ", "
        << e.ciHigh << "] (mean " << e.mean << ")";
}

/** Normalize the fields that legitimately differ between a
 *  fresh-warmed and a checkpoint-restored run before demanding
 *  byte identity. */
std::string
dumpNormalized(SimResult r)
{
    r.sampled.checkpointUsed = false;
    r.sampled.checkpointSaved = false;
    return toJson(r).dump(2);
}

/** In-memory checkpoint store for hook-level tests. */
struct MemStore
{
    std::map<std::string, Json> docs;
    std::vector<std::string> loads;

    sample::CheckpointHooks
    hooks()
    {
        sample::CheckpointHooks h;
        h.load =
            [this](const std::string &key) -> std::optional<Json> {
            loads.push_back(key);
            const auto it = docs.find(key);
            if (it == docs.end())
                return std::nullopt;
            return it->second;
        };
        h.save = [this](const std::string &key, Json &&doc) {
            docs.emplace(key, std::move(doc));
        };
        return h;
    }
};

std::string
freshDir(const std::string &tag)
{
    const fs::path dir =
        fs::temp_directory_path() / ("cgp-sample-test-" + tag);
    fs::remove_all(dir);
    return dir.string();
}

// ---------------------------------------------------------------
// Estimator math
// ---------------------------------------------------------------

TEST(SampleEstimator, NearestRankPercentileIsTotal)
{
    using sample::nearestRankPercentile;
    EXPECT_EQ(nearestRankPercentile({}, 50.0), 0.0);
    EXPECT_EQ(nearestRankPercentile({7.0}, 2.5), 7.0);
    EXPECT_EQ(nearestRankPercentile({7.0}, 97.5), 7.0);

    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_EQ(nearestRankPercentile(v, 0.0), 1.0);
    EXPECT_EQ(nearestRankPercentile(v, 100.0), 4.0);
    EXPECT_EQ(nearestRankPercentile(v, 50.0), 2.0);
    // Out-of-range and non-finite q never reach the float-to-int
    // cast: clamped / defaulted to the median.
    EXPECT_EQ(nearestRankPercentile(v, -10.0), 1.0);
    EXPECT_EQ(nearestRankPercentile(v, 400.0), 4.0);
    EXPECT_EQ(nearestRankPercentile(v, std::nan("")), 2.0);
}

TEST(SampleEstimator, MeanSemAndBandFollowTheFormulas)
{
    sample::WindowEstimator e;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        e.add(x);
    const sample::SampledEstimate est = e.estimate();
    ASSERT_EQ(est.samples, 8u);
    EXPECT_DOUBLE_EQ(est.mean, 5.0);
    // Sample variance (n-1) = 32/7; SEM = sqrt(var/8).
    EXPECT_NEAR(est.sem, std::sqrt(32.0 / 7.0 / 8.0), 1e-12);
    // The band is the union of the normal interval and the
    // percentile envelope, so it covers both.
    EXPECT_LE(est.ciLow, 5.0 - 1.96 * est.sem);
    EXPECT_GE(est.ciHigh, 5.0 + 1.96 * est.sem);
    EXPECT_LE(est.ciLow, 2.0);
    EXPECT_GE(est.ciHigh, 9.0);
    EXPECT_TRUE(est.contains(5.0));
    EXPECT_FALSE(est.contains(est.ciHigh + 1.0));
}

TEST(SampleEstimator, EmptyEstimateContainsNothing)
{
    const sample::SampledEstimate est =
        sample::WindowEstimator{}.estimate();
    EXPECT_EQ(est.samples, 0u);
    EXPECT_FALSE(est.contains(0.0));
}

TEST(SampleCheckpoint, KeySeparatesEveryIdentityComponent)
{
    using sample::checkpointKey;
    const std::string base = checkpointKey("w", "cfg", 1000);
    EXPECT_EQ(base, checkpointKey("w", "cfg", 1000));
    EXPECT_NE(base, checkpointKey("w2", "cfg", 1000));
    EXPECT_NE(base, checkpointKey("w", "cfg2", 1000));
    EXPECT_NE(base, checkpointKey("w", "cfg", 1001));
}

// ---------------------------------------------------------------
// Accuracy vs full-detail ground truth
// ---------------------------------------------------------------

struct AccuracyCase
{
    const char *name;
    unsigned functions;
    double workPerCall;
};

TEST(SampledAccuracy, EstimatesMatchFullDetailAcrossSeeds)
{
    // Five distinct phase structures (the "seed" axis): different
    // call-graph sizes and per-call work lengths change both the
    // I-cache working set and the CPI profile.
    const AccuracyCase cases[] = {
        {"acc-a", 40, 45.0}, {"acc-b", 60, 60.0},
        {"acc-c", 80, 80.0}, {"acc-d", 100, 55.0},
        {"acc-e", 50, 100.0},
    };
    for (const AccuracyCase &c : cases) {
        SCOPED_TRACE(c.name);
        // Long enough that the cold-start transient — which the
        // full-detail truth includes but sampling deliberately
        // warms past — is a negligible share of the run.  The
        // period is co-prime with the proxies' phase structure so
        // systematic sampling does not alias onto it.
        const Workload w =
            proxyWorkload(c.name, c.functions, c.workPerCall,
                          4'000'000);
        const SimConfig base = SimConfig::o5Om();
        const SimResult full = runSimulation(w, base);
        const SimResult smp = runSimulation(
            w, SimConfig::withSampling(base, 2500, 11311, 30'000));

        ASSERT_TRUE(smp.sampledEnabled);
        ASSERT_FALSE(full.sampledEnabled);
        ASSERT_GE(smp.sampled.windows, 5u);

        EXPECT_TRUE(smp.sampled.cpi.contains(truthCpi(full)));
        EXPECT_TRUE(
            smp.sampled.l1iMissRate.contains(truthL1i(full)));
        EXPECT_TRUE(containsOrNegligible(smp.sampled.l1dMissRate,
                                         truthL1d(full)));
        EXPECT_TRUE(
            within5Percent(smp.sampled.cpi.mean, truthCpi(full)));
        EXPECT_TRUE(within5Percent(smp.sampled.l1iMissRate.mean,
                                   truthL1i(full)));
        EXPECT_TRUE(within5Percent(smp.sampled.l1dMissRate.mean,
                                   truthL1d(full)));
    }
}

TEST(SampledAccuracy, HoldsUnderThePrefetchingConfiguration)
{
    const Workload w =
        proxyWorkload("acc-cgp", 60, 60.0, 2'000'000);
    const SimConfig base =
        SimConfig::withCgp(LayoutKind::PettisHansen, 4);
    const SimResult full = runSimulation(w, base);
    const SimResult smp = runSimulation(
        w, SimConfig::withSampling(base, 2500, 11311, 30'000));
    ASSERT_TRUE(smp.sampledEnabled);
    EXPECT_TRUE(smp.sampled.cpi.contains(truthCpi(full)));
    EXPECT_TRUE(smp.sampled.l1iMissRate.contains(truthL1i(full)));
    EXPECT_TRUE(
        within5Percent(smp.sampled.cpi.mean, truthCpi(full)));
}

TEST(SampledSpeedup, CycleLoopShrinksAtLeast5x)
{
    // The acceptance bar: at a 1:20 window/period ratio the
    // detailed cycle loop must run >= 5x less than full detail
    // while the ground truth stays inside every 95% CI.
    const Workload w =
        proxyWorkload("speed", 70, 70.0, 2'000'000);
    const SimConfig base = SimConfig::o5Om();
    const SimResult full = runSimulation(w, base);
    const SimResult smp = runSimulation(
        w, SimConfig::withSampling(base, 2500, 50'000, 30'000));

    ASSERT_TRUE(smp.sampledEnabled);
    ASSERT_GT(smp.sampled.detailedCycles, 0u);
    const double speedup = static_cast<double>(full.cycles) /
        static_cast<double>(smp.sampled.detailedCycles);
    EXPECT_GE(speedup, 5.0) << "detailed cycles "
                            << smp.sampled.detailedCycles << " of "
                            << full.cycles;
    EXPECT_TRUE(smp.sampled.cpi.contains(truthCpi(full)));
    EXPECT_TRUE(smp.sampled.l1iMissRate.contains(truthL1i(full)));
    EXPECT_TRUE(containsOrNegligible(smp.sampled.l1dMissRate,
                                     truthL1d(full)));
}

// ---------------------------------------------------------------
// Determinism and the disabled path
// ---------------------------------------------------------------

TEST(SampledDeterminism, ByteIdenticalAcrossThreadCounts)
{
    const std::vector<Workload> workloads = {
        proxyWorkload("det-a", 40, 50.0, 150'000),
        proxyWorkload("det-b", 60, 70.0, 150'000),
    };
    exp::CampaignSpec spec;
    spec.name = "sample-det";
    spec.title = "determinism";
    for (const Workload &w : workloads)
        spec.workloads.push_back(w.name);
    spec.explicitConfigs = {
        SimConfig::withSampling(SimConfig::o5Om(), 2000, 10'000,
                                15'000),
        SimConfig::withSampling(
            SimConfig::withCgp(LayoutKind::PettisHansen, 4), 2000,
            10'000, 15'000),
    };

    const auto runAt = [&](unsigned threads) {
        exp::InMemoryProvider provider(workloads);
        exp::EngineOptions opt;
        opt.threads = threads;
        opt.verbose = false;
        return exp::runCampaign(spec, provider, opt);
    };
    const exp::CampaignRun one = runAt(1);
    const exp::CampaignRun four = runAt(4);
    ASSERT_EQ(one.results.size(), four.results.size());
    for (std::size_t i = 0; i < one.results.size(); ++i) {
        ASSERT_TRUE(one.results[i].sampledEnabled);
        EXPECT_EQ(toJson(one.results[i]).dump(2),
                  toJson(four.results[i]).dump(2));
    }
}

TEST(SampledDisabled, LegacyResultsCarryNoSampledBlock)
{
    const Workload w = proxyWorkload("legacy", 40, 50.0, 100'000);
    const SimResult r = runSimulation(w, SimConfig::o5Om());
    EXPECT_FALSE(r.sampledEnabled);
    const std::string dump = toJson(r).dump(2);
    EXPECT_EQ(dump.find("\"sampled\""), std::string::npos);
    // Serialization round trip preserves the absence.
    EXPECT_FALSE(simResultFromJson(toJson(r)).sampledEnabled);
}

// ---------------------------------------------------------------
// Perturbation self-check
// ---------------------------------------------------------------

TEST(SampledPerturbation, UnwarmedRunFallsOutsideTheCI)
{
    // With functional warming off, fast-forward advances the trace
    // without touching the caches: every window starts against
    // stale state.  The workload's 400-function instruction
    // footprint exceeds the L1-I, so staleness is real damage (a
    // resident working set would make stale state still-correct
    // state), and tiny windows with long gaps never amortize it —
    // the CI claim is only meaningful if this deliberately broken
    // configuration lands *outside* the band.
    const Workload w =
        proxyWorkload("perturb", 400, 30.0, 2'000'000);
    const SimConfig base = SimConfig::o5Om();
    const SimResult full = runSimulation(w, base);

    SimConfig cold =
        SimConfig::withSampling(base, 1000, 25'000, 30'000);
    cold.sample.functionalWarming = false;
    const SimResult smp = runSimulation(w, cold);

    ASSERT_TRUE(smp.sampledEnabled);
    ASSERT_GE(smp.sampled.windows, 5u);
    EXPECT_GT(smp.sampled.cpi.mean, 2.0 * truthCpi(full));
    EXPECT_FALSE(smp.sampled.cpi.contains(truthCpi(full)));
    EXPECT_GT(smp.sampled.l1iMissRate.mean, truthL1i(full));

    // The properly warmed configuration at the same geometry keeps
    // the truth inside its band — the check discriminates.
    const SimResult warm = runSimulation(
        w, SimConfig::withSampling(base, 1000, 25'000, 30'000));
    EXPECT_TRUE(warm.sampled.cpi.contains(truthCpi(full)));
}

// ---------------------------------------------------------------
// Checkpoints: round trip, identity, sealed store, corruption
// ---------------------------------------------------------------

SimConfig
sampledConfig(SimConfig base)
{
    return SimConfig::withSampling(std::move(base), 2500, 12'500,
                                   40'000);
}

TEST(SampleCheckpointRoundTrip, RestoredRunContinuesByteIdentical)
{
    // Every serialized structure is on in at least one of these:
    // o5 (caches + branch + core), CGP_4 (CGHC), I+D combined
    // (stride + correlation + semantic + arbiter), the last also with
    // the server flag on for its single-stream core.  Each case lists
    // the engine sections its checkpoint must carry; the rest must
    // be null, so an engine missing from the checkpoint fails here
    // by name rather than only through a diverging restored run.
    struct Case
    {
        SimConfig config;
        std::vector<std::string> engineSections;
    };
    SimConfig serverIPlusD = SimConfig::withServer(
        SimConfig::withIPlusD(DataPrefetchKind::Combined, true), 1, 1,
        0);
    serverIPlusD.server.singleStream = true;
    const std::vector<Case> cases = {
        {SimConfig::o5(), {}},
        {SimConfig::withCgp(LayoutKind::PettisHansen, 4), {"cghc"}},
        {SimConfig::withIPlusD(DataPrefetchKind::Combined, true),
         {"cghc", "stride", "correlation", "semantic"}},
        {serverIPlusD, {"cghc", "stride", "correlation", "semantic"}},
    };
    const Workload w = proxyWorkload("ckpt", 60, 60.0, 300'000);
    for (const Case &c : cases) {
        const SimConfig &base = c.config;
        SCOPED_TRACE(base.describe());
        MemStore store;

        SimConfig first = sampledConfig(base);
        first.sample.checkpoints = store.hooks();
        const SimResult warmed = runSimulation(w, first);
        ASSERT_TRUE(warmed.sampled.checkpointSaved);
        ASSERT_FALSE(warmed.sampled.checkpointUsed);
        ASSERT_EQ(store.docs.size(), 1u);

        const Json &state = store.docs.begin()->second.at("state");
        for (const char *section :
             {"cghc", "stride", "correlation", "semantic"}) {
            const bool expected =
                std::find(c.engineSections.begin(),
                          c.engineSections.end(),
                          section) != c.engineSections.end();
            EXPECT_EQ(!state.at(section).isNull(), expected)
                << "checkpoint section '" << section << "'";
        }

        SimConfig second = sampledConfig(base);
        second.sample.checkpoints = store.hooks();
        const SimResult restored = runSimulation(w, second);
        ASSERT_TRUE(restored.sampled.checkpointUsed);
        EXPECT_FALSE(restored.sampled.checkpointSaved);

        EXPECT_EQ(dumpNormalized(warmed), dumpNormalized(restored));
    }
}

TEST(SampleCheckpointRoundTrip, MismatchedIdentityTriggersRewarm)
{
    const Workload w = proxyWorkload("ckpt-id", 60, 60.0, 200'000);
    const Workload other =
        proxyWorkload("ckpt-id2", 60, 60.0, 200'000);

    // Capture a checkpoint for `other`, then serve it for *every*
    // key: checkCheckpoint must reject it on the metadata check
    // (before mutating anything) and the run re-warms from scratch.
    MemStore store;
    SimConfig cfg = sampledConfig(SimConfig::o5Om());
    cfg.sample.checkpoints = store.hooks();
    runSimulation(other, cfg);
    ASSERT_EQ(store.docs.size(), 1u);
    const Json alien = store.docs.begin()->second;

    SimConfig plain = sampledConfig(SimConfig::o5Om());
    const SimResult fresh = runSimulation(w, plain);

    SimConfig poisoned = sampledConfig(SimConfig::o5Om());
    poisoned.sample.checkpoints.load =
        [&alien](const std::string &) -> std::optional<Json> {
        return alien;
    };
    const SimResult rewarmed = runSimulation(w, poisoned);
    EXPECT_FALSE(rewarmed.sampled.checkpointUsed);
    EXPECT_EQ(dumpNormalized(fresh), dumpNormalized(rewarmed));
}

TEST(SampleCheckpointRoundTrip, FailureAfterSectionsLoadedFailsTheRun)
{
    // A checkpoint whose l2 section is null passes the metadata
    // checks, loads l1i and l1d, then throws: the machine is neither
    // reset nor restored, so the run must fail rather than re-warm.
    const Workload w = proxyWorkload("ckpt-l2", 60, 60.0, 200'000);
    MemStore store;
    SimConfig cfg = sampledConfig(SimConfig::o5Om());
    cfg.sample.checkpoints = store.hooks();
    runSimulation(w, cfg);
    ASSERT_EQ(store.docs.size(), 1u);
    Json &doc = store.docs.begin()->second;
    Json state = doc.at("state");
    ASSERT_FALSE(state.at("l2").isNull());
    state.set("l2", nullptr);
    doc.set("state", std::move(state));

    EXPECT_THROW(runSimulation(w, cfg), std::runtime_error);
}

TEST(SampleCheckpointRoundTrip, ShortReplayFailsTheRun)
{
    // A checkpoint cut on a longer trace of the same name passes
    // every metadata check, but its replay runs off the end of the
    // shorter trace: the run must fail rather than re-warm a stream
    // already consumed.
    const Workload longer = proxyWorkload("ckpt-short", 60, 60.0, 200'000);
    const Workload shorter = proxyWorkload("ckpt-short", 60, 60.0, 20'000);
    MemStore store;
    SimConfig cfg = sampledConfig(SimConfig::o5Om());
    cfg.sample.checkpoints = store.hooks();
    runSimulation(longer, cfg);
    ASSERT_EQ(store.docs.size(), 1u);

    EXPECT_THROW(runSimulation(shorter, cfg), std::runtime_error);
}

// ---------------------------------------------------------------
// Sparse sections (checkpoint format 2)
// ---------------------------------------------------------------

/** Scalar values in @p j: what a section costs, before whitespace. */
std::size_t
countValues(const Json &j)
{
    if (j.isArray()) {
        std::size_t n = 0;
        for (const Json &v : j.items())
            n += countValues(v);
        return n;
    }
    if (j.isObject()) {
        std::size_t n = 0;
        for (const auto &[key, v] : j.members())
            n += countValues(v);
        return n;
    }
    return 1;
}

/** The caches, branch unit and a two-level CGHC, driven directly so
 *  warm-up can fill far more of them than a short trace does. */
struct TableMachine
{
    MemoryHierarchy mem;
    BranchUnit branch{BranchPredictorConfig{}};
    Cghc cghc{CghcConfig::twoLevel2K32K()};

    sample::CheckpointParts
    parts()
    {
        sample::CheckpointParts p;
        p.l1i = &mem.l1i();
        p.l1d = &mem.l1d();
        p.l2 = &mem.l2();
        p.branch = &branch;
        p.cghc = &cghc;
        return p;
    }

    /** Fill both L1s, most of the L2, most of the BTB and both CGHC
     *  levels; the prefetched lines set every flag a line carries. */
    void
    warm(std::uint64_t seed)
    {
        Rng rng(seed);
        for (Addr a = 0; a < 64 * 1024; a += 32)
            mem.l1i().warmAccess(0x400000 + a, false);
        for (int i = 0; i < 60'000; ++i) {
            const Addr a = 0x10000000 + rng.nextBelow(4u << 20);
            mem.l1d().warmAccess(a, rng.nextBool(0.3));
        }
        for (Addr a = 0; a < 64 * 32; a += 32)
            mem.l1d().prefetch(0x20000000 + a, 0, AccessSource::DataPrefetch);
        mem.tick(1000);
        mem.l1d().access(0x20000000, 1000, AccessSource::DemandLoad, false);
        for (int i = 0; i < 1000; ++i) {
            const Addr pc = 0x400000 + 4 * rng.nextBelow(1u << 16);
            branch.predictConditional(pc, rng.nextBool(0.6), pc + 64);
            branch.predictCall(pc + 8, pc + 4096, pc & ~Addr{31});
            if (rng.nextBool(0.4))
                branch.predictReturn(pc + 12, pc + 12);
        }
        for (int i = 0; i < 4000; ++i) {
            const Addr caller = 0x400000 + 32 * rng.nextBelow(4096);
            const Addr callee = 0x400000 + 32 * rng.nextBelow(4096);
            cghc.callPrefetchAccess(callee);
            cghc.callUpdateAccess(caller, callee);
            if (rng.nextBool(0.5)) {
                cghc.returnPrefetchAccess(caller);
                cghc.returnUpdateAccess(callee);
            }
        }
    }
};

TEST(SampleCheckpointSparse, FilledTablesRoundTripWithinTheDenseSize)
{
    TableMachine warmed;
    warmed.warm(27);
    const Json doc =
        sample::buildCheckpoint(warmed.parts(), "tables", "direct", 1, 1);
    const Json &state = doc.at("state");

    // The warm-up filled the L1s completely and most of the L2.
    const HierarchyConfig geometry;
    const auto lines = [](const CacheConfig &c) {
        return static_cast<std::size_t>(c.sizeBytes / c.lineBytes);
    };
    EXPECT_EQ(state.at("l1i").at("tag").size(), lines(geometry.l1i));
    EXPECT_EQ(state.at("l1d").at("tag").size(), lines(geometry.l1d));
    EXPECT_EQ(state.at("l1i").at("empty").size(), 0u);
    EXPECT_GT(state.at("l2").at("tag").size(), lines(geometry.l2) / 2);
    EXPECT_LT(state.at("l2").at("tag").size(), lines(geometry.l2));

    // No section holds more values than its format-1 dense arrays
    // did: five header values and three per line for a cache; bits,
    // history and the PHT, then sets, assoc, tick and three per BTB
    // entry, then depth, top, size and two per RAS entry for the
    // branch unit; describe, tick and per CGHC entry a tag, an
    // index/count word, an LRU tick and the callee slots.
    for (const char *name : {"l1i", "l1d", "l2"}) {
        SCOPED_TRACE(name);
        const Json &section = state.at(name);
        const std::size_t dense = 5 +
            3 * section.at("size_bytes").asUint() /
                section.at("line_bytes").asUint();
        EXPECT_LE(countValues(section), dense);
    }
    const BranchPredictorConfig bp;
    const std::size_t denseBranch = 2 + (std::size_t{1} << bp.phtBits) +
        3 + 3 * bp.btbEntries + 3 + 2 * bp.rasEntries;
    EXPECT_LE(countValues(state.at("branch")), denseBranch);
    EXPECT_GT(state.at("branch").at("btb").at("pc").size(),
              bp.btbEntries / 2);
    const CghcConfig cg = CghcConfig::twoLevel2K32K();
    const std::size_t cghcEntries = (cg.l1Bytes + cg.l2Bytes) / 32;
    EXPECT_LE(countValues(state.at("cghc")),
              2 + cghcEntries * (3 + Cghc::slotsPerEntry));

    // Restoring into fresh tables, or over tables another warm-up
    // filled, and cutting again gives the same document, and the
    // machines go on to answer alike.
    TableMachine restored;
    sample::applyCheckpoint(doc, restored.parts());
    EXPECT_EQ(sample::buildCheckpoint(restored.parts(), "tables",
                                      "direct", 1, 1)
                  .dump(),
              doc.dump());
    TableMachine overwritten;
    overwritten.warm(28);
    sample::applyCheckpoint(doc, overwritten.parts());
    EXPECT_EQ(sample::buildCheckpoint(overwritten.parts(), "tables",
                                      "direct", 1, 1)
                  .dump(),
              doc.dump());
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = 0x10000000 + rng.nextBelow(8u << 20);
        const Cycle now = 2000 + 40 * static_cast<Cycle>(i);
        for (TableMachine *m : {&warmed, &restored})
            m->mem.tick(now);
        const auto x =
            warmed.mem.l1d().access(a, now, AccessSource::DemandLoad,
                                    false);
        const auto y =
            restored.mem.l1d().access(a, now, AccessSource::DemandLoad,
                                      false);
        ASSERT_EQ(x.hit, y.hit) << i;
        ASSERT_EQ(x.readyCycle, y.readyCycle) << i;
        const Addr f = 0x400000 + 32 * rng.nextBelow(4096);
        const auto p = warmed.cghc.callPrefetchAccess(f);
        const auto q = restored.cghc.callPrefetchAccess(f);
        ASSERT_EQ(p.hit, q.hit) << i;
        ASSERT_EQ(p.prefetchTarget, q.prefetchTarget) << i;
        const Addr pc = 0x400000 + 4 * rng.nextBelow(1u << 16);
        const auto b = warmed.branch.predictJump(pc, pc + 128);
        const auto c = restored.branch.predictJump(pc, pc + 128);
        ASSERT_EQ(b.targetKnown, c.targetKnown) << i;
        ASSERT_EQ(b.target, c.target) << i;
    }
}

/**
 * The machine a sampled single-stream run warms for @p config (the
 * caches, branch unit, core and whichever engines the configuration
 * builds), after a functional warm-up of @p warmup instructions.
 */
struct WarmedMachine
{
    WarmedMachine(const Workload &w, const SimConfig &config,
                  std::uint64_t warmup)
        : image(LayoutBuilder(*w.registry)
                    .build(config.layout, *w.omProfile)),
          stream(*w.registry, image, *w.trace), mem(config.mem),
          dengine(makeDataPrefetcher(mem.l1d(), config.dprefetch))
    {
        if (config.prefetch == PrefetchKind::Cgp) {
            cgp = std::make_unique<CgpPrefetcher>(mem.l1i(), config.cghc,
                                                  config.depth);
        }
        core = std::make_unique<Core>(stream, mem, cgp.get(),
                                      config.core, dengine.get());
        if (warmup > 0)
            core->fastForward(warmup);
        parts.l1i = &mem.l1i();
        parts.l1d = &mem.l1d();
        parts.l2 = &mem.l2();
        parts.branch = &core->branchUnit();
        parts.core = core.get();
        if (cgp != nullptr)
            cgp->addCheckpointParts(parts);
        if (dengine != nullptr)
            dengine->addCheckpointParts(parts);
    }

    CodeImage image;
    InstructionExpander stream;
    MemoryHierarchy mem;
    std::unique_ptr<CgpPrefetcher> cgp;
    std::unique_ptr<DataPrefetcher> dengine;
    std::unique_ptr<Core> core;
    sample::CheckpointParts parts;
};

TEST(SampleCheckpointRoundTrip, SaveLoadSaveGivesTheSameDocument)
{
    const Workload w = proxyWorkload("ckpt-resave", 60, 60.0, 200'000);
    for (const SimConfig &config :
         {SimConfig::o5(),
          SimConfig::withCgp(LayoutKind::PettisHansen, 4),
          SimConfig::withIPlusD(DataPrefetchKind::Combined, true)}) {
        SCOPED_TRACE(config.describe());
        const std::uint64_t warmup = 40'000;
        WarmedMachine warmed(w, config, warmup);
        const Json doc = sample::buildCheckpoint(
            warmed.parts, w.name, config.describe(), warmup, warmup);

        WarmedMachine restored(w, config, 0);
        sample::applyCheckpoint(doc, restored.parts);
        EXPECT_EQ(sample::buildCheckpoint(restored.parts, w.name,
                                          config.describe(), warmup,
                                          warmup)
                      .dump(2),
                  doc.dump(2));
    }
}

TEST(SampleCheckpointRoundTrip, MalformedRunsInASealedFileFailTheRun)
{
    // Each damaged run list is sealed afresh, so it passes the store's
    // CRC and checkCheckpoint; the l2 section then fails to load after
    // l1i and l1d did, which must fail the run as in
    // FailureAfterSectionsLoadedFailsTheRun.
    const Workload w = proxyWorkload("ckpt-runs", 60, 60.0, 200'000);
    const std::string dir = freshDir("runs");
    SimConfig cfg = sampledConfig(SimConfig::o5Om());
    cfg.sample.checkpoints = exp::makeSealedCheckpointStore(dir);
    const SimResult warmed = runSimulation(w, cfg);
    ASSERT_TRUE(warmed.sampled.checkpointSaved);

    fs::path artifact;
    for (const auto &e : fs::directory_iterator(exp::checkpointStoreDir(dir))) {
        if (e.is_regular_file())
            artifact = e.path();
    }
    ASSERT_FALSE(artifact.empty());
    exp::SealedRead read = exp::readSealedJson(artifact.string());
    ASSERT_TRUE(read.doc.has_value()) << read.problem;
    Json original = *read.doc;
    original.remove("crc32");
    const Json &l2 = original.at("state").at("l2");
    std::vector<std::uint64_t> runs;
    for (const Json &v : l2.at("empty").items())
        runs.push_back(v.asUint());
    ASSERT_GE(runs.size(), 6u);
    const std::uint64_t lines = l2.at("size_bytes").asUint() /
        l2.at("line_bytes").asUint();

    const auto withRuns = [&](const std::vector<std::uint64_t> &r) {
        Json empty = Json::array();
        for (std::uint64_t v : r)
            empty.push(v);
        Json section = original.at("state").at("l2");
        section.set("empty", std::move(empty));
        Json state = original.at("state");
        state.set("l2", std::move(section));
        Json doc = original;
        doc.set("state", std::move(state));
        return doc;
    };

    // The untouched document restores: the damage below is all that
    // fails.
    exp::makeSealedCheckpointStore(dir).save(artifact.stem().string(),
                                             withRuns(runs));
    EXPECT_TRUE(runSimulation(w, cfg).sampled.checkpointUsed);

    std::vector<std::pair<std::string, std::vector<std::uint64_t>>>
        damaged;
    {
        auto r = runs; // run 0 reaches into run 1
        r[1] = r[2] - r[0] + 1;
        damaged.emplace_back("overlapping", r);
    }
    {
        auto r = runs; // the last run leaves the table
        r[r.size() - 1] = lines - r[r.size() - 2] + 1;
        damaged.emplace_back("out of range", r);
    }
    {
        auto r = runs; // runs 0 and 1 swapped
        std::swap(r[0], r[2]);
        std::swap(r[1], r[3]);
        damaged.emplace_back("unsorted", r);
    }
    {
        auto r = runs; // a start without its length
        r.pop_back();
        damaged.emplace_back("unpaired", r);
    }
    {
        auto r = runs; // one slot more filled than the values cover
        std::size_t len = 1;
        while (len < r.size() && r[len] == 1)
            len += 2;
        ASSERT_LT(len, r.size());
        --r[len];
        damaged.emplace_back("one slot short", r);
    }
    {
        auto r = runs; // a run split in two that touch
        std::size_t len = 1;
        while (len < r.size() && r[len] == 1)
            len += 2;
        ASSERT_LT(len, r.size());
        const std::uint64_t start = r[len - 1];
        const std::uint64_t length = r[len];
        r[len] = 1;
        r.insert(r.begin() + static_cast<std::ptrdiff_t>(len) + 1,
                 {start + 1, length - 1});
        damaged.emplace_back("adjacent", r);
    }
    for (const auto &[what, r] : damaged) {
        SCOPED_TRACE(what);
        const Json doc = withRuns(r);
        EXPECT_NO_THROW(sample::checkCheckpoint(
            doc, w.name, cfg.describe(), cfg.sample.warmupInstrs));
        exp::makeSealedCheckpointStore(dir).save(
            artifact.stem().string(), Json(doc));
        try {
            runSimulation(w, cfg);
            ADD_FAILURE() << "the run re-warmed or restored";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("cache l2"),
                      std::string::npos)
                << e.what();
        }
    }
    fs::remove_all(dir);
}

TEST(SampleCheckpointStore, SealedStoreRoundTripsOnDisk)
{
    const std::string dir = freshDir("store");
    const Workload w = proxyWorkload("store", 50, 55.0, 200'000);

    SimConfig first = sampledConfig(SimConfig::o5Om());
    first.sample.checkpoints = exp::makeSealedCheckpointStore(dir);
    const SimResult warmed = runSimulation(w, first);
    ASSERT_TRUE(warmed.sampled.checkpointSaved);

    const fs::path store = exp::checkpointStoreDir(dir);
    ASSERT_TRUE(fs::is_directory(store));
    std::size_t files = 0;
    for (const auto &e : fs::directory_iterator(store)) {
        if (e.is_regular_file())
            ++files;
    }
    EXPECT_EQ(files, 1u);

    SimConfig second = sampledConfig(SimConfig::o5Om());
    second.sample.checkpoints = exp::makeSealedCheckpointStore(dir);
    const SimResult restored = runSimulation(w, second);
    EXPECT_TRUE(restored.sampled.checkpointUsed);
    EXPECT_EQ(dumpNormalized(warmed), dumpNormalized(restored));
    fs::remove_all(dir);
}

TEST(SampleCheckpointStore, WrittenFileIsSealThenDump)
{
    // The store writes the sealed text from one dump; the bytes must
    // be exactly the dump of the sealed document, and unsealing it
    // must give back the saved document.
    const Workload w = proxyWorkload("store-bytes", 50, 55.0, 200'000);
    MemStore mem;
    SimConfig cfg = sampledConfig(
        SimConfig::withIPlusD(DataPrefetchKind::Combined, true));
    cfg.sample.checkpoints = mem.hooks();
    ASSERT_TRUE(runSimulation(w, cfg).sampled.checkpointSaved);
    ASSERT_EQ(mem.docs.size(), 1u);
    const auto &[key, doc] = *mem.docs.begin();

    const std::string dir = freshDir("store-bytes");
    exp::makeSealedCheckpointStore(dir).save(key, Json(doc));
    const std::string written = exp::readFileOrThrow(
        exp::checkpointStoreDir(dir) + "/" + key + ".json");
    Json sealed = Json::parse(written);
    EXPECT_EQ(written, sealed.dump(2) + "\n");
    EXPECT_TRUE(exp::verifySealedJson(sealed));
    sealed.remove("crc32");
    EXPECT_EQ(sealed, doc);
    fs::remove_all(dir);
}

TEST(SampleCheckpointStore, CorruptArtifactsAreQuarantined)
{
    const std::string dir = freshDir("corrupt");
    const Workload w = proxyWorkload("corrupt", 50, 55.0, 200'000);

    SimConfig cfg = sampledConfig(SimConfig::o5Om());
    cfg.sample.checkpoints = exp::makeSealedCheckpointStore(dir);
    const SimResult warmed = runSimulation(w, cfg);
    ASSERT_TRUE(warmed.sampled.checkpointSaved);

    const fs::path store = exp::checkpointStoreDir(dir);
    fs::path artifact;
    for (const auto &e : fs::directory_iterator(store)) {
        if (e.is_regular_file())
            artifact = e.path();
    }
    ASSERT_FALSE(artifact.empty());

    const auto rerun = [&] {
        SimConfig c = sampledConfig(SimConfig::o5Om());
        c.sample.checkpoints = exp::makeSealedCheckpointStore(dir);
        return runSimulation(w, c);
    };
    const auto quarantined = [&] {
        std::size_t n = 0;
        const fs::path q = store / "quarantine";
        if (fs::is_directory(q)) {
            for (const auto &e : fs::directory_iterator(q))
                (void)e, ++n;
        }
        return n;
    };

    // Bit flip: the seal fails, the artifact is moved aside (never
    // deleted) and the run transparently re-warms — byte-identical
    // to the original fresh-warm run.
    {
        std::fstream f(artifact,
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.seekp(200);
        char c = 0;
        f.seekg(200);
        f.get(c);
        f.seekp(200);
        f.put(c == 'x' ? 'y' : 'x');
    }
    const SimResult after_flip = rerun();
    EXPECT_FALSE(after_flip.sampled.checkpointUsed);
    EXPECT_TRUE(after_flip.sampled.checkpointSaved); // re-saved
    EXPECT_EQ(dumpNormalized(warmed), dumpNormalized(after_flip));
    EXPECT_EQ(quarantined(), 1u);

    // Truncation: unparsable JSON takes the other quarantine path.
    {
        std::ifstream in(artifact, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        const std::string text = os.str();
        ASSERT_GT(text.size(), 64u);
        std::ofstream out(artifact,
                          std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    }
    const SimResult after_trunc = rerun();
    EXPECT_FALSE(after_trunc.sampled.checkpointUsed);
    EXPECT_EQ(dumpNormalized(warmed), dumpNormalized(after_trunc));
    EXPECT_EQ(quarantined(), 2u);
    fs::remove_all(dir);
}

} // anonymous namespace
} // namespace cgp
