/**
 * @file
 * Tests for the experiment-campaign subsystem: spec expansion, the
 * job scheduler, engine determinism across thread counts
 * (byte-identical run directories), and fault-injected kill/resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "exp/campaign.hh"
#include "exp/campaigns.hh"
#include "exp/engine.hh"
#include "exp/figures.hh"
#include "exp/integrity.hh"
#include "exp/rundir.hh"
#include "exp/scheduler.hh"
#include "fault/fault.hh"
#include "harness/workload.hh"
#include "util/crc.hh"
#include "util/watchdog.hh"

namespace cgp::exp
{
namespace
{

namespace fs = std::filesystem;

/** Two workloads over four labeled configs. */
CampaignSpec
fourConfigSpec()
{
    CampaignSpec s;
    s.name = "t";
    s.workloads = {"w1", "w2"};
    s.explicitConfigs = {
        SimConfig::withCgp(LayoutKind::PettisHansen, 2),
        SimConfig::withCgp(LayoutKind::Original, 2),
        SimConfig::withCgp(LayoutKind::PettisHansen, 4),
        SimConfig::withCgp(LayoutKind::Original, 4),
    };
    s.explicitLabels = {"D2+OM", "D2+O5", "D4+OM", "D4+O5"};
    return s;
}

TEST(Campaign, EmptySpecRejected)
{
    CampaignSpec s;
    s.name = "empty";
    s.workloads = {"w"};
    EXPECT_THROW(expandJobs(s), std::invalid_argument);

    s.explicitConfigs = {SimConfig::o5(), SimConfig::o5Om()};
    s.explicitLabels = {"only-one"};
    EXPECT_THROW(expandJobs(s), std::invalid_argument);

    s.explicitLabels.clear();
    s.workloads.clear();
    EXPECT_THROW(expandJobs(s), std::invalid_argument);
}

TEST(Campaign, ExplicitConfigLabelsFallBackToDescribe)
{
    CampaignSpec s;
    s.name = "t";
    s.workloads = {"w"};
    s.explicitConfigs = {SimConfig::o5(), SimConfig::o5Om()};
    const auto jobs = expandJobs(s);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].label, "O5");
    EXPECT_EQ(jobs[1].label, "O5+OM");

    s.explicitLabels = {"first", ""};
    const auto named = expandJobs(s);
    EXPECT_EQ(named[0].label, "first");
    EXPECT_EQ(named[1].label, "O5+OM");
}

TEST(Campaign, JobsAreWorkloadMajor)
{
    CampaignSpec s = fourConfigSpec();
    const auto jobs = expandJobs(s);
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].workload, "w1");
    EXPECT_EQ(jobs[3].workload, "w1");
    EXPECT_EQ(jobs[4].workload, "w2");
    EXPECT_EQ(jobs[0].label, "D2+OM");
    EXPECT_EQ(jobs[3].label, "D4+O5");
    EXPECT_EQ(jobs[4].label, "D2+OM");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[0].key(), "w1|D2+OM");
    EXPECT_EQ(jobs[3].config.depth, 4u);
    EXPECT_EQ(jobs[3].config.layout, LayoutKind::Original);
}

TEST(Campaign, FingerprintPinsJobIdentity)
{
    CampaignSpec s = fourConfigSpec();
    const std::string fp = fingerprint(s, expandJobs(s));
    EXPECT_EQ(fp.size(), 16u);
    EXPECT_EQ(fp, fingerprint(s, expandJobs(s)));

    CampaignSpec fewer = s;
    fewer.workloads.pop_back();
    EXPECT_NE(fp, fingerprint(fewer, expandJobs(fewer)));

    // What the workloads were built from is part of the identity;
    // an empty one leaves the fingerprint as it is.
    EXPECT_EQ(fp, fingerprint(s, expandJobs(s), ""));
    const std::string at1 = fingerprint(s, expandJobs(s), "scale=1");
    EXPECT_NE(fp, at1);
    EXPECT_NE(at1, fingerprint(s, expandJobs(s), "scale=2"));
}

TEST(Campaign, PaperRegistryExpands)
{
    for (const std::string &name : campaignNames()) {
        const CampaignSpec spec = paperCampaign(name);
        EXPECT_FALSE(expandJobs(spec).empty()) << name;
    }
    EXPECT_THROW(paperCampaign("nonsense"), std::invalid_argument);
    EXPECT_EQ(campaignGroup("figures").size(), 8u);
    EXPECT_EQ(campaignGroup("fig4").size(), 1u);
}

TEST(Scheduler, RunsEveryJobExactlyOnce)
{
    constexpr std::size_t n = 200;
    std::vector<std::atomic<int>> hits(n);
    const ScheduleStats stats =
        runJobs(n, SchedulerOptions{8}, [&hits](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_GE(stats.threads, 1u);
}

TEST(Scheduler, InlineWhenSingleThreaded)
{
    std::vector<std::size_t> order;
    const ScheduleStats stats =
        runJobs(5, SchedulerOptions{1}, [&order](std::size_t i) {
            order.push_back(i);
        });
    EXPECT_EQ(stats.threads, 1u);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, PropagatesFirstException)
{
    EXPECT_THROW(runJobs(50, SchedulerOptions{4},
                         [](std::size_t i) {
                             if (i == 17)
                                 throw std::runtime_error("boom");
                         }),
                 std::runtime_error);
}

TEST(Scheduler, ZeroJobsIsANoOp)
{
    runJobs(0, SchedulerOptions{4}, [](std::size_t) { FAIL(); });
}

TEST(Scheduler, FailurePolicyRoundTripsAndRejectsJunk)
{
    EXPECT_EQ(failurePolicyFromString("strict"),
              FailurePolicy::Strict);
    EXPECT_EQ(failurePolicyFromString("degrade"),
              FailurePolicy::Degrade);
    EXPECT_STREQ(toString(FailurePolicy::Strict), "strict");
    EXPECT_STREQ(toString(FailurePolicy::Degrade), "degrade");
    EXPECT_THROW(failurePolicyFromString("lenient"),
                 std::invalid_argument);
}

TEST(Scheduler, StrictAbortCarriesTheAggregatedFailures)
{
    bool ran_after = false;
    try {
        SchedulerOptions opt;
        opt.threads = 1;
        runJobs(10, opt, [&ran_after](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("boom 3");
            if (i > 3)
                ran_after = true;
        });
        FAIL() << "expected CampaignAborted";
    } catch (const CampaignAborted &e) {
        ASSERT_EQ(e.failures().size(), 1u);
        EXPECT_EQ(e.failures()[0].index, 3u);
        EXPECT_EQ(e.failures()[0].kind, "error");
        EXPECT_EQ(e.failures()[0].message, "boom 3");
        EXPECT_NE(std::string(e.what()).find("boom 3"),
                  std::string::npos);
    }
    // Strict cancels everything queued behind the failure.
    EXPECT_FALSE(ran_after);
}

TEST(Scheduler, DegradeRecordsEveryFailureAndFinishesTheRest)
{
    constexpr std::size_t n = 40;
    std::vector<std::atomic<int>> hits(n);
    SchedulerOptions opt;
    opt.threads = 4;
    opt.policy = FailurePolicy::Degrade;
    const ScheduleStats stats =
        runJobs(n, opt, [&hits](std::size_t i) {
            hits[i]++;
            if (i % 7 == 0) {
                throw std::runtime_error(
                    "job " + std::to_string(i) + " failed");
            }
        });

    ASSERT_EQ(stats.failures.size(), 6u); // 0, 7, ..., 35
    for (std::size_t f = 0; f < stats.failures.size(); ++f) {
        EXPECT_EQ(stats.failures[f].index, f * 7);
        EXPECT_EQ(stats.failures[f].kind, "error");
    }
    EXPECT_EQ(stats.cancelledJobs, 0u);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i; // every job still ran
}

TEST(Scheduler, ClassifiesFailuresByExceptionType)
{
    SchedulerOptions opt;
    opt.threads = 1;
    opt.policy = FailurePolicy::Degrade;
    const ScheduleStats stats = runJobs(3, opt, [](std::size_t i) {
        if (i == 0)
            throw TimeoutError("over budget");
        if (i == 1)
            throw fault::TransientIoError("flaky volume");
        throw std::logic_error("plain bug");
    });
    ASSERT_EQ(stats.failures.size(), 3u);
    EXPECT_EQ(stats.failures[0].kind, "timeout");
    EXPECT_EQ(stats.failures[1].kind, "transient-io");
    EXPECT_EQ(stats.failures[2].kind, "error");
    EXPECT_EQ(stats.failures[1].message, "flaky volume");
}

TEST(Integrity, SealedTextIsSealThenDump)
{
    Json nested = Json::object();
    nested.set("list", Json::array());
    nested.set("name", "quote \" and \\ and \n");
    Json deep = Json::object();
    deep.set("x", -3);
    deep.set("y", 0.125);
    deep.set("z", Json::object());
    Json arr = Json::array();
    arr.push(deep);
    arr.push(nullptr);
    arr.push(true);
    nested.set("arr", std::move(arr));
    Json scalar = Json::object();
    scalar.set("only", 18446744073709551615ull);

    // The text is the dump of the sealed document, whose last member
    // is the CRC32 of the unsealed document's dump.
    for (const Json &doc : {Json::object(), scalar, nested}) {
        const std::string text = sealedJsonText(doc);
        const Json sealed = Json::parse(text);
        EXPECT_EQ(text, sealed.dump(2) + "\n");
        EXPECT_TRUE(verifySealedJson(sealed));
        ASSERT_FALSE(sealed.members().empty());
        EXPECT_EQ(sealed.members().back().first, "crc32");
        EXPECT_EQ(sealed.at("crc32").asUint(), crc32(doc.dump(2)));
        Json payload = sealed;
        payload.remove("crc32");
        EXPECT_EQ(payload, doc);
    }
    const Json sealed = Json::parse(sealedJsonText(nested));
    EXPECT_THROW(sealedJsonText(sealed), std::invalid_argument);
    EXPECT_THROW(sealedJsonText(Json::array()), std::invalid_argument);
}

/**
 * Engine tests run a real 2x2 campaign on tiny SPEC proxies.  The
 * workloads are built once and shared; runSimulation only reads
 * them.
 */
class EngineTest : public ::testing::Test
{
  protected:
    static CampaignSpec
    spec()
    {
        CampaignSpec s;
        s.name = "unit";
        s.title = "engine unit campaign";
        s.workloads = {"tiny-a", "tiny-b"};
        s.explicitConfigs = {
            SimConfig::o5Om(),
            SimConfig::withCgp(LayoutKind::PettisHansen, 4)};
        return s;
    }

    static InMemoryProvider &
    provider()
    {
        static InMemoryProvider p = [] {
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
            return InMemoryProvider(
                {make("tiny-a", 40), make("tiny-b", 60)});
        }();
        return p;
    }

    static std::string
    freshDir(const std::string &tag)
    {
        const fs::path dir =
            fs::temp_directory_path() / ("cgp-exp-test-" + tag);
        fs::remove_all(dir);
        return dir.string();
    }

    static std::string
    slurp(const fs::path &p)
    {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    }
};

TEST_F(EngineTest, RunsAllJobsAndIndexesResults)
{
    EngineOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    const CampaignRun run = runCampaign(spec(), provider(), opt);

    ASSERT_EQ(run.jobs.size(), 4u);
    ASSERT_EQ(run.results.size(), 4u);
    EXPECT_EQ(run.executed, 4u);
    EXPECT_EQ(run.skipped, 0u);
    EXPECT_EQ(run.workloadNames(),
              (std::vector<std::string>{"tiny-a", "tiny-b"}));
    EXPECT_EQ(run.configLabels(),
              (std::vector<std::string>{"O5+OM", "O5+OM+CGP_4"}));
    for (const JobSpec &j : run.jobs) {
        const SimResult &r = run.results[j.index];
        EXPECT_EQ(r.workload, j.workload);
        EXPECT_EQ(r.config, j.label);
        EXPECT_GT(r.cycles, 0u);
    }
    EXPECT_EQ(&run.at("tiny-a", "O5+OM"), run.find("tiny-a", "O5+OM"));
    EXPECT_EQ(run.find("tiny-a", "nope"), nullptr);
    EXPECT_THROW(run.at("tiny-a", "nope"), std::out_of_range);
}

TEST_F(EngineTest, RunDirIsByteIdenticalAcrossThreadCounts)
{
    std::vector<std::string> dirs;
    for (const unsigned threads : {1u, 2u, 8u}) {
        EngineOptions opt;
        opt.threads = threads;
        opt.verbose = false;
        opt.runDir =
            freshDir("det-" + std::to_string(threads));
        runCampaign(spec(), provider(), opt);
        dirs.push_back(opt.runDir);
    }

    const std::string manifest =
        slurp(fs::path(dirs[0]) / "manifest.json");
    EXPECT_FALSE(manifest.empty());
    // No execution-environment data may leak into the run dir.
    EXPECT_EQ(manifest.find("threads"), std::string::npos);
    EXPECT_EQ(manifest.find("wall"), std::string::npos);

    for (std::size_t d = 1; d < dirs.size(); ++d) {
        EXPECT_EQ(manifest,
                  slurp(fs::path(dirs[d]) / "manifest.json"));
        for (std::size_t i = 0; i < 4; ++i) {
            const std::string file = RunDir::jobFileName(i);
            EXPECT_EQ(slurp(fs::path(dirs[0]) / file),
                      slurp(fs::path(dirs[d]) / file))
                << file << " differs at threads variant " << d;
        }
    }
    for (const auto &d : dirs)
        fs::remove_all(d);
}

TEST_F(EngineTest, KilledRunResumesWithoutRerunningCompletedJobs)
{
    // Reference: a clean run, no run directory.
    EngineOptions ref_opt;
    ref_opt.threads = 1;
    ref_opt.verbose = false;
    const CampaignRun ref = runCampaign(spec(), provider(), ref_opt);

    const std::string dir = freshDir("resume");

    // Phase 1: single-threaded so completion order is the job order,
    // killed by an injected crash right after the second job becomes
    // durable ("exp.record" sits past the job file write).
    fault::FaultInjector inj;
    inj.arm("exp.record", {fault::FaultKind::Crash, 1, 1});
    {
        fault::ScopedGlobalInjector scoped(inj);
        EngineOptions opt;
        opt.threads = 1;
        opt.verbose = false;
        opt.runDir = dir;
        EXPECT_THROW(runCampaign(spec(), provider(), opt),
                     fault::CrashInjected);
    }
    ASSERT_EQ(inj.fired().size(), 1u);
    EXPECT_EQ(inj.fired()[0].point, "exp.record");

    // Phase 2: resume (multi-threaded) — the two durable jobs are
    // loaded, only the two lost ones are simulated.
    EngineOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    opt.runDir = dir;
    const CampaignRun resumed = runCampaign(spec(), provider(), opt);
    EXPECT_EQ(resumed.skipped, 2u);
    EXPECT_EQ(resumed.executed, 2u);

    ASSERT_EQ(resumed.results.size(), ref.results.size());
    for (std::size_t i = 0; i < ref.results.size(); ++i)
        EXPECT_EQ(resumed.results[i], ref.results[i]) << "job " << i;

    // A second resume has nothing left to do.
    const CampaignRun again = runCampaign(spec(), provider(), opt);
    EXPECT_EQ(again.skipped, 4u);
    EXPECT_EQ(again.executed, 0u);
    fs::remove_all(dir);
}

TEST_F(EngineTest, CrashBeforeRecordLosesOnlyThatJob)
{
    const std::string dir = freshDir("prerecord");
    fault::FaultInjector inj;
    inj.arm("exp.pre_record", {fault::FaultKind::Crash, 0, 1});
    {
        fault::ScopedGlobalInjector scoped(inj);
        EngineOptions opt;
        opt.threads = 1;
        opt.verbose = false;
        opt.runDir = dir;
        EXPECT_THROW(runCampaign(spec(), provider(), opt),
                     fault::CrashInjected);
    }
    // The crash fired before anything was written: full re-run.
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    const CampaignRun resumed = runCampaign(spec(), provider(), opt);
    EXPECT_EQ(resumed.skipped, 0u);
    EXPECT_EQ(resumed.executed, 4u);
    fs::remove_all(dir);
}

TEST_F(EngineTest, RunDirRejectsDifferentCampaign)
{
    const std::string dir = freshDir("mismatch");
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    runCampaign(spec(), provider(), opt);

    CampaignSpec other = spec();
    other.workloads = {"tiny-b"}; // different fingerprint
    EXPECT_THROW(runCampaign(other, provider(), opt),
                 std::runtime_error);
    fs::remove_all(dir);
}

/** The engine test workloads, claiming to be built from @p id. */
class IdentifiedProvider final : public WorkloadProvider
{
  public:
    IdentifiedProvider(WorkloadProvider &inner, std::string id)
        : inner_(inner), id_(std::move(id))
    {
    }

    Workload
    resolve(const std::string &name) override
    {
        return inner_.resolve(name);
    }

    std::string identity() const override { return id_; }

  private:
    WorkloadProvider &inner_;
    std::string id_;
};

TEST_F(EngineTest, RunDirRejectsWorkloadsBuiltOtherwise)
{
    const std::string dir = freshDir("identity");
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    IdentifiedProvider small(provider(), "scale=0.03");
    runCampaign(spec(), small, opt);

    IdentifiedProvider large(provider(), "scale=0.06");
    EXPECT_THROW(runCampaign(spec(), large, opt), ForeignRunDir);
    const CampaignRun again = runCampaign(spec(), small, opt);
    EXPECT_EQ(again.executed, 0u);
    EXPECT_EQ(again.skipped, 4u);
    fs::remove_all(dir);
}

TEST_F(EngineTest, RunDirRefusesOtherSchema)
{
    const std::string dir = freshDir("schema");
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    runCampaign(spec(), provider(), opt);

    // A validly sealed manifest from the schema-2 layout.
    const std::string manifest = dir + "/manifest.json";
    Json m = Json::parse(readFileOrThrow(manifest));
    m.remove("crc32");
    m.set("schema", 2);
    writeFileAtomicDurable(manifest, sealedJsonText(m));

    const auto expectRefusal = [](const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("schema 2"), std::string::npos) << what;
        EXPECT_NE(what.find("schema 3"), std::string::npos) << what;
        EXPECT_NE(what.find("--fresh"), std::string::npos) << what;
    };
    try {
        runCampaign(spec(), provider(), opt);
        ADD_FAILURE() << "resume accepted a schema-2 run dir";
    } catch (const std::runtime_error &e) {
        expectRefusal(e);
    }
    try {
        loadRunDir(dir);
        ADD_FAILURE() << "report accepted a schema-2 run dir";
    } catch (const std::runtime_error &e) {
        expectRefusal(e);
    }
    EXPECT_FALSE(verifyRunDir(dir).ok());
    fs::remove_all(dir);
}

TEST_F(EngineTest, LoadRunDirReportsCompletion)
{
    const std::string dir = freshDir("load");
    EngineOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    opt.runDir = dir;
    const CampaignRun run = runCampaign(spec(), provider(), opt);

    const LoadedRun loaded = loadRunDir(dir);
    EXPECT_EQ(loaded.campaign, "unit");
    EXPECT_EQ(loaded.fingerprint, run.fingerprint);
    ASSERT_EQ(loaded.jobs.size(), 4u);
    ASSERT_EQ(loaded.results.size(), 4u);
    for (const auto &[index, result] : loaded.results)
        EXPECT_EQ(result, run.results[index]);

    EXPECT_THROW(loadRunDir(dir + "-nonexistent"),
                 std::runtime_error);
    fs::remove_all(dir);
}

TEST_F(EngineTest, UnknownWorkloadNameThrows)
{
    CampaignSpec s = spec();
    s.workloads.push_back("missing");
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    EXPECT_THROW(runCampaign(s, provider(), opt),
                 std::invalid_argument);
}

TEST_F(EngineTest, DegradeCompletesHealthyJobsAndRecordsFailures)
{
    // Jobs 1 and 3 (the "tiny" config) blow a 2k-cycle budget; job 0
    // additionally eats an injected transient failure.  Only job 2 is
    // healthy.
    CampaignSpec s = spec();
    SimConfig tiny = SimConfig::o5Om();
    tiny.core.maxCycles = 2'000;
    s.explicitConfigs = {SimConfig::o5Om(), tiny};
    s.explicitLabels = {"base", "tiny"};
    s.policy = FailurePolicy::Degrade;

    fault::FaultInjector inj;
    inj.arm("exp.job", {fault::FaultKind::TransientIo, 0, 1});

    const std::string dir = freshDir("degrade");
    EngineOptions opt;
    opt.threads = 1; // job order == index order: the fault hits job 0
    opt.verbose = false;
    opt.runDir = dir;
    CampaignRun run;
    {
        fault::ScopedGlobalInjector scoped(inj);
        run = runCampaign(s, provider(), opt);
    }

    EXPECT_EQ(run.executed, 1u);
    ASSERT_EQ(run.failures.size(), 3u);
    EXPECT_EQ(run.failures[0].index, 0u);
    EXPECT_EQ(run.failures[0].kind, "transient-io");
    EXPECT_EQ(run.failures[1].index, 1u);
    EXPECT_EQ(run.failures[1].kind, "timeout");
    EXPECT_NE(run.failures[1].message.find("cycle"),
              std::string::npos);
    EXPECT_EQ(run.failures[2].index, 3u);
    EXPECT_EQ(run.failures[2].kind, "timeout");
    EXPECT_GT(run.results[2].cycles, 0u); // the healthy job ran

    // The manifest records the failures for `cgpbench report`.
    const LoadedRun loaded = loadRunDir(dir);
    ASSERT_EQ(loaded.failures.size(), 3u);
    EXPECT_EQ(loaded.failures.at(0).kind, "transient-io");
    EXPECT_EQ(loaded.failures.at(1).kind, "timeout");
    EXPECT_EQ(loaded.failures.at(3).kind, "timeout");
    EXPECT_EQ(loaded.results.size(), 1u);

    // A resume re-runs failed jobs: the transient one (no fault
    // armed now) succeeds, the budget-starved pair fails again.
    const CampaignRun again = runCampaign(s, provider(), opt);
    EXPECT_EQ(again.skipped, 1u);
    EXPECT_EQ(again.executed, 1u);
    ASSERT_EQ(again.failures.size(), 2u);
    EXPECT_EQ(again.failures[0].index, 1u);
    EXPECT_EQ(again.failures[1].index, 3u);
    fs::remove_all(dir);
}

TEST_F(EngineTest, WatchdogCycleBudgetClassifiesRunawaysAsTimeouts)
{
    EngineOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    opt.watchdogCycles = 1'000; // far below any real job
    opt.onFail = FailurePolicy::Degrade; // CLI-style override
    const CampaignRun run = runCampaign(spec(), provider(), opt);

    EXPECT_EQ(run.executed, 0u);
    ASSERT_EQ(run.failures.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(run.failures[i].index, i);
        EXPECT_EQ(run.failures[i].kind, "timeout");
    }
}

TEST_F(EngineTest, WatchdogWallBudgetClassifiesRunawaysAsTimeouts)
{
    EngineOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    opt.watchdogWallSeconds = 1e-6; // over by the first stride check
    opt.onFail = FailurePolicy::Degrade;
    const CampaignRun run = runCampaign(spec(), provider(), opt);

    EXPECT_EQ(run.executed, 0u);
    ASSERT_EQ(run.failures.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(run.failures[i].index, i);
        EXPECT_EQ(run.failures[i].kind, "timeout");
        EXPECT_NE(run.failures[i].message.find("wall-clock"),
                  std::string::npos);
    }
}

TEST_F(EngineTest, CorruptedArtifactsAreQuarantinedAndRerun)
{
    const std::string dir = freshDir("fuzz");
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    const CampaignRun ref = runCampaign(spec(), provider(), opt);

    // Bit-flip one job file, truncate another, tear the manifest.
    const auto rewrite = [](const fs::path &p,
                            const std::string &bytes) {
        std::ofstream(p, std::ios::binary | std::ios::trunc)
            << bytes;
    };
    std::string flipped = slurp(fs::path(dir) / "job-0000.json");
    flipped[flipped.size() / 2] =
        static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
    rewrite(fs::path(dir) / "job-0000.json", flipped);

    const std::string halfJob = slurp(fs::path(dir) / "job-0001.json");
    rewrite(fs::path(dir) / "job-0001.json",
            halfJob.substr(0, halfJob.size() / 2));

    const std::string halfMan = slurp(fs::path(dir) / "manifest.json");
    rewrite(fs::path(dir) / "manifest.json",
            halfMan.substr(0, halfMan.size() / 2));

    const CampaignRun resumed = runCampaign(spec(), provider(), opt);
    EXPECT_EQ(resumed.quarantined, 3u);
    EXPECT_EQ(resumed.skipped, 2u);
    EXPECT_EQ(resumed.executed, 2u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(resumed.results[i], ref.results[i]) << i;

    // Nothing was deleted: the damaged artifacts sit in quarantine.
    const VerifyReport report = verifyRunDir(dir);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.jobsDone, 4u);
    EXPECT_EQ(report.jobFilesOk, 4u);
    EXPECT_EQ(report.quarantineEntries.size(), 3u);
    fs::remove_all(dir);
}

TEST_F(EngineTest, OrphanedTmpFilesAreSweptOnOpen)
{
    const std::string dir = freshDir("sweep");
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    runCampaign(spec(), provider(), opt);

    // A writer killed mid-write leaves *.tmp droppings behind.
    std::ofstream(fs::path(dir) / "job-0002.json.tmp") << "{ half";
    std::ofstream(fs::path(dir) / "manifest.json.tmp") << "{";

    const VerifyReport before = verifyRunDir(dir);
    EXPECT_FALSE(before.ok());
    EXPECT_EQ(before.issues.size(), 2u);

    const CampaignRun resumed = runCampaign(spec(), provider(), opt);
    EXPECT_EQ(resumed.skipped, 4u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "job-0002.json.tmp"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "manifest.json.tmp"));
    EXPECT_TRUE(verifyRunDir(dir).ok());
    fs::remove_all(dir);
}

TEST_F(EngineTest, RunDirLockRejectsALiveOwnerAndStealsAStaleOne)
{
    const std::string dir = freshDir("lock");
    fs::create_directories(dir);
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;

    // pid 1 is always alive (and never this test process).
    std::ofstream(fs::path(dir) / ".lock") << "1\n";
    EXPECT_THROW(runCampaign(spec(), provider(), opt),
                 std::runtime_error);

    // A dead owner's lock is stolen and the campaign proceeds.
    std::ofstream(fs::path(dir) / ".lock",
                  std::ios::binary | std::ios::trunc)
        << "999999999\n";
    const CampaignRun run = runCampaign(spec(), provider(), opt);
    EXPECT_EQ(run.executed, 4u);
    // Released when the engine's RunDir went out of scope.
    EXPECT_FALSE(fs::exists(fs::path(dir) / ".lock"));
    fs::remove_all(dir);
}

TEST_F(EngineTest, RunDirStealsATornLock)
{
    // A torn lock write (the chaos loop's TornWrite at the first
    // durable write) leaves the pid's leading digits without the
    // newline; they may name a live process (here pid 1), but the
    // lock is stale.
    const std::string dir = freshDir("torn-lock");
    fs::create_directories(dir);
    std::ofstream(fs::path(dir) / ".lock") << "1";
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    EXPECT_EQ(runCampaign(spec(), provider(), opt).executed, 4u);
    fs::remove_all(dir);
}

TEST_F(EngineTest, RunDirLockIsExclusiveWithinTheProcess)
{
    const std::string dir = freshDir("lock2");
    const CampaignSpec s = spec();
    const auto jobs = expandJobs(s);
    const std::string fp = fingerprint(s, jobs);

    RunDir first(dir);
    first.prepare(s, jobs, fp);
    RunDir second(dir);
    EXPECT_THROW(second.prepare(s, jobs, fp), std::runtime_error);
    fs::remove_all(dir);
}

TEST_F(EngineTest, TornJobFileWriteIsCaughtByTheSealOnResume)
{
    const std::string dir = freshDir("torn");
    fault::FaultInjector inj;
    // Hits on the durable-write path: 1 = .lock, 2 = the prepare
    // manifest, 3 = job 0's file — tear that.
    inj.arm("exp.artifact_write",
            {fault::FaultKind::TornWrite, 2, 1});
    {
        fault::ScopedGlobalInjector scoped(inj);
        EngineOptions opt;
        opt.threads = 1;
        opt.verbose = false;
        opt.runDir = dir;
        EXPECT_THROW(runCampaign(spec(), provider(), opt),
                     fault::CrashInjected);
    }
    ASSERT_EQ(inj.fired().size(), 1u);
    EXPECT_EQ(inj.fired()[0].point, "exp.artifact_write");
    // The half-written bytes were published under the final name:
    // only the CRC seal can tell them from a good artifact.
    EXPECT_TRUE(fs::exists(fs::path(dir) / "job-0000.json"));

    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    const CampaignRun resumed = runCampaign(spec(), provider(), opt);
    EXPECT_GE(resumed.quarantined, 1u);
    EXPECT_EQ(resumed.skipped, 0u);
    EXPECT_EQ(resumed.executed, 4u);
    fs::remove_all(dir);
}

/** A finished engine-test run dir whose job-0001.json and
 *  job-0002.json have traded places; returns the clean run. */
CampaignRun
runAndSwapJobFiles(const CampaignSpec &s, WorkloadProvider &provider,
                   const std::string &dir)
{
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    CampaignRun run = runCampaign(s, provider, opt);
    const fs::path a = fs::path(dir) / "job-0001.json";
    const fs::path b = fs::path(dir) / "job-0002.json";
    const fs::path t = fs::path(dir) / "swap";
    fs::rename(a, t);
    fs::rename(b, a);
    fs::rename(t, b);
    return run;
}

TEST_F(EngineTest, LoadRunDirRejectsSwappedJobFiles)
{
    const std::string dir = freshDir("swap-load");
    const CampaignRun ref = runAndSwapJobFiles(spec(), provider(), dir);

    // Each file is sealed and of this campaign, but holds the other
    // job: neither job is done, and no number moves to the other.
    const LoadedRun loaded = loadRunDir(dir);
    ASSERT_EQ(loaded.results.size(), 2u);
    EXPECT_EQ(loaded.results.at(0), ref.results[0]);
    EXPECT_EQ(loaded.results.at(3), ref.results[3]);
    ASSERT_EQ(loaded.rejected.size(), 2u);
    EXPECT_NE(loaded.rejected.at(1).find("holds job 2"),
              std::string::npos)
        << loaded.rejected.at(1);
    EXPECT_NE(loaded.rejected.at(2).find("holds job 1"),
              std::string::npos)
        << loaded.rejected.at(2);

    // Resume rejects the same two files and re-runs their jobs.
    EngineOptions opt;
    opt.threads = 1;
    opt.verbose = false;
    opt.runDir = dir;
    const CampaignRun resumed = runCampaign(spec(), provider(), opt);
    EXPECT_EQ(resumed.quarantined, 2u);
    EXPECT_EQ(resumed.skipped, 2u);
    EXPECT_EQ(resumed.executed, 2u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(resumed.results[i], ref.results[i]) << i;
    EXPECT_EQ(loadRunDir(dir).results.size(), 4u);
    fs::remove_all(dir);
}

TEST_F(EngineTest, VerifyRunDirReportsSwappedJobFiles)
{
    const std::string dir = freshDir("swap-verify");
    runAndSwapJobFiles(spec(), provider(), dir);

    const VerifyReport report = verifyRunDir(dir);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.manifestOk);
    EXPECT_EQ(report.jobsTotal, 4u);
    EXPECT_EQ(report.jobsDone, 2u);
    EXPECT_EQ(report.jobsPending, 2u);
    EXPECT_EQ(report.jobFilesOk, 2u);
    ASSERT_EQ(report.issues.size(), 2u);
    EXPECT_EQ(report.issues[0].file, "job-0001.json");
    EXPECT_EQ(report.issues[1].file, "job-0002.json");
    fs::remove_all(dir);
}

TEST_F(EngineTest, RecordingAJobWritesOnlyItsFile)
{
    const std::string dir = freshDir("writes");
    const auto durableWrites = [&dir] {
        fault::FaultInjector inj;
        fault::ScopedGlobalInjector scoped(inj);
        EngineOptions opt;
        opt.threads = 2;
        opt.verbose = false;
        opt.runDir = dir;
        runCampaign(spec(), provider(), opt);
        return inj.hitCount("exp.artifact_write");
    };
    // The lock, the manifest and one file per job.
    EXPECT_EQ(durableWrites(), 6u);
    // Resuming the finished dir records nothing.
    EXPECT_LE(durableWrites(), 2u);
    fs::remove_all(dir);
}

TEST(Campaign, ArbiterSweepCoversTheKnobCube)
{
    const CampaignSpec s = paperCampaign("arbiter-sweep");
    const auto jobs = expandJobs(s);
    EXPECT_EQ(jobs.size(), 54u); // 3x3x3 configs, 2 workloads
    EXPECT_EQ(jobs[0].label, "acc10+probe4+filt64");
    const auto &ablations = campaignGroup("ablations");
    EXPECT_NE(std::find(ablations.begin(), ablations.end(),
                        "arbiter-sweep"),
              ablations.end());
}

/**
 * A CampaignRun over @p name's registry jobs with synthetic,
 * non-zero results: no simulation, so every printer can be driven
 * through every campaign in milliseconds.  Server and sampled
 * blocks follow each job's config, as a real run's would.
 */
CampaignRun
syntheticRun(const std::string &name)
{
    const CampaignSpec spec = paperCampaign(name);
    CampaignRun run;
    run.name = spec.name;
    run.title = spec.title;
    run.jobs = expandJobs(spec);
    for (const JobSpec &j : run.jobs) {
        const std::uint64_t k = j.index + 1;
        SimResult r;
        r.workload = j.workload;
        r.config = j.label;
        r.cycles = 1000 * k + 7;
        r.instrs = 900 * k;
        r.icacheAccesses = 400 * k;
        r.icacheMisses = 40 * k;
        r.dcacheAccesses = 300 * k;
        r.dcacheMisses = 30 * k;
        r.l2Misses = 5 * k;
        r.busLines = 60 * k;
        r.instrsPerCall = 43.0;
        r.nl = {10 * k, 4 * k, 2 * k, 3 * k};
        r.cghc = {8 * k, 5 * k, 1 * k, 1 * k};
        r.dpf = {6 * k, 2 * k, 2 * k, 1 * k};
        r.arbNl = {10 * k, k, k, k};
        r.arbDpf = {6 * k, k, k, k};
        r.serverEnabled = j.config.server.enabled;
        if (r.serverEnabled) {
            r.server.cores = j.config.server.cores;
            r.server.sessions = j.config.server.sessions;
            r.server.cycles = r.cycles;
            r.server.queriesServed = 5 * k;
            r.server.latencyP50 = 100 * k;
            r.server.latencyP95 = 150 * k;
            r.server.latencyP99 = 170 * k;
            r.server.portWaitCycles = 9 * k;
            r.server.perCore.resize(r.server.cores);
            for (server::ServerCoreStats &c : r.server.perCore) {
                c.cycles = r.cycles;
                c.instrs = r.instrs;
                c.idleCycles = k;
                c.icacheMisses = k;
                c.queries = 1;
                c.binds = 1;
            }
        }
        r.sampledEnabled = j.config.sample.enabled;
        if (r.sampledEnabled) {
            r.sampled.windows = 4;
            r.sampled.detailedCycles = 100 * k;
            r.sampled.cpi = {4, 1.1, 0.1, 0.9, 1.3};
            r.sampled.l1iMissRate = {4, 0.1, 0.01, 0.08, 0.12};
            r.sampled.l1dMissRate = {4, 0.1, 0.01, 0.08, 0.12};
        }
        run.results.push_back(r);
    }
    return run;
}

TEST(Figures, EveryCampaignPrints)
{
    // A printer asking for a label its campaign no longer has throws
    // std::out_of_range from CampaignRun::at.
    for (const std::string &name : campaignNames()) {
        const CampaignRun run = syntheticRun(name);
        std::ostringstream os;
        EXPECT_NO_THROW(printCampaign(run, os)) << name;
        EXPECT_NE(os.str().find(run.title), std::string::npos)
            << name;
        EXPECT_EQ(os.str().find("figure section skipped"),
                  std::string::npos)
            << name;
    }
}

TEST(Figures, FigFiveNormalizesToTheInfiniteCghc)
{
    std::ostringstream os;
    printCampaign(syntheticRun("fig5"), os);
    EXPECT_NE(os.str().find("normalized to CGHC-Inf"),
              std::string::npos);
}

TEST(Figures, DegradedRunFeedsNoFigureNumber)
{
    // Fail the first job of every campaign (for most figures, the
    // base every ratio divides by).
    const std::regex nonFinite(R"(\b(inf|nan)\b)");
    for (const std::string &name : campaignNames()) {
        CampaignRun run = syntheticRun(name);
        const JobSpec &failed = run.jobs[0];
        run.failures.push_back({0, "timeout", "cycle budget"});

        EXPECT_EQ(run.find(failed.workload, failed.label), nullptr)
            << name;
        EXPECT_THROW(run.at(failed.workload, failed.label),
                     std::out_of_range)
            << name;

        std::ostringstream os;
        ASSERT_NO_THROW(printCampaign(run, os)) << name;
        const std::string out = os.str();
        EXPECT_FALSE(std::regex_search(out, nonFinite))
            << name << ":\n" << out;
        EXPECT_NE(out.find("Failed jobs"), std::string::npos) << name;
        if (findCampaign(name)->print != nullptr) {
            EXPECT_NE(out.find("figure section skipped: 1 job(s) "
                               "failed\n"),
                      std::string::npos)
                << name;
        }
    }
}

} // namespace
} // namespace cgp::exp
