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

#include "exp/checkpoint.hh"
#include "exp/engine.hh"
#include "exp/integrity.hh"
#include "harness/report.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"
#include "sample/checkpoint.hh"
#include "sample/estimator.hh"

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
