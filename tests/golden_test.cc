/**
 * @file
 * Golden-result regression suite: small deterministic
 * configurations run end-to-end through runSimulation and their
 * SimResult JSON is byte-compared against the checked-in goldens in
 * tests/golden/.  The simulator is single-threaded per job and
 * Json::dump is byte-stable (fixed insertion order, deterministic
 * number formatting), so any byte difference is a genuine behaviour
 * change — intended changes update the goldens, unintended ones fail
 * here before they reach the paper figures.
 *
 * Regenerating the goldens after an intended behaviour change:
 *
 *     cmake --build build -j && \
 *         CGP_GOLDEN_REGEN=1 ./build/tests/test_golden
 *
 * then inspect `git diff tests/golden/` and commit the new files
 * together with the change that moved the numbers.
 *
 * db_trace_digests.txt pins the recorded DB workload traces
 * themselves (event and call counts plus an FNV-1a-64 of each
 * serialized trace) and the function registry's declaration order,
 * so a storage-engine change that alters the traced call sequence or
 * the code layout fails here even when no SimResult moves.
 *
 * warm_checkpoint_digests.txt pins functional warming: for sampled
 * runs at several warm-up budgets it holds an FNV-1a-64 of the
 * warm-up checkpoint document (every cache, branch, CGHC and
 * D-prefetch table the warm-up trained) and of the run's SimResult,
 * so a fast-forward change that alters any warmed bit fails here.
 *
 * om_layout_digests.txt pins the OM feedback profile of the DB
 * workload set (its call-edge, block-edge and entry counts and an
 * FNV-1a-64 of every weight in key order) and the O5 and O5+OM
 * images built from it (function order and every block address), so
 * a profile or layout change that moves any block fails here.
 *
 * campaign_jobs.txt pins every registry campaign's job list: its
 * fingerprint at the identity "scale=0.25", each job's key in order,
 * and a canonical line of the SimConfig fields campaigns set, so a
 * change to how a campaign lists its configs fails here even when a
 * config moves under an unchanged label.
 *
 * core_geometry_counts.txt pins the core's queue limits and stage
 * widths: smoke-a under no prefetcher, NL_4 and CGP_4 on Table 1 and
 * on small, odd and wide fetch-queue/ROB/LSQ sizes, fetch and
 * commit widths, a perfect I-cache and 16- and 64-byte L1-I lines,
 * one line of counters and a cache-state hash each.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/layout.hh"
#include "cpu/core.hh"
#include "exp/campaign.hh"
#include "exp/campaigns.hh"
#include "harness/report.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cgp.hh"
#include "prefetch/nextline.hh"
#include "sample/config.hh"
#include "trace/expand.hh"
#include "trace/serialize.hh"
#include "util/fnv.hh"

#ifndef CGP_GOLDEN_DIR
#error "CGP_GOLDEN_DIR must point at the checked-in goldens"
#endif

namespace cgp
{
namespace
{

struct GoldenCase
{
    const char *file;     ///< file name under tests/golden/
    const char *workload; ///< paper-registry workload name
    SimConfig config;
};

/** The locked-down matrix: baseline, I-side CGP, D-side combined,
 *  the throttled I+D arbiter point, and one server-model and one
 *  sampled run so the `server` and `sampled` blocks are pinned too. */
std::vector<GoldenCase>
goldenCases()
{
    return {
        {"smoke_o5.json", "smoke-a", SimConfig::o5()},
        {"smoke_cgp4.json", "smoke-a",
         SimConfig::withCgp(LayoutKind::PettisHansen, 4)},
        // The smoke programs barely miss in the D-cache, so the
        // D-side cases run on the small profiling DB workload where
        // the combined engine actually fires.
        {"wiscprof_dcombined.json", "wisc-prof",
         SimConfig::withDPrefetch(DataPrefetchKind::Combined)},
        {"wiscprof_iplusd_arb.json", "wisc-prof",
         SimConfig::withIPlusD(DataPrefetchKind::Combined, true)},
        {"wiscprof_server.json", "wisc-prof",
         SimConfig::withServer(
             SimConfig::withCgp(LayoutKind::PettisHansen, 4), 2, 4, 4)},
        {"smoke_sampled_cgp4.json", "smoke-a",
         SimConfig::withSampling(
             SimConfig::withCgp(LayoutKind::PettisHansen, 4), 2000,
             10000, 10000)},
    };
}

std::string
goldenPath(const char *file)
{
    return std::string(CGP_GOLDEN_DIR) + "/" + file;
}

bool
regenRequested()
{
    const char *env = std::getenv("CGP_GOLDEN_REGEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run one golden case; the workload bank is shared so the trace is
 *  built once per program regardless of test order. */
SimResult
runCase(const GoldenCase &c)
{
    static exp::PaperWorkloadBank bank;
    return runSimulation(bank.resolve(c.workload), c.config);
}

std::string
serialize(const SimResult &r)
{
    return toJson(r).dump(2) + "\n";
}

TEST(Golden, ResultsMatchCheckedInGoldens)
{
    for (const GoldenCase &c : goldenCases()) {
        const std::string path = goldenPath(c.file);
        const std::string got = serialize(runCase(c));

        if (regenRequested()) {
            std::ofstream out(path, std::ios::binary);
            ASSERT_TRUE(out) << "cannot write " << path;
            out << got;
            continue;
        }

        const std::string want = readFile(path);
        ASSERT_FALSE(want.empty())
            << path << " is missing — regenerate with "
            << "CGP_GOLDEN_REGEN=1 ./test_golden";
        // Byte equality: diffs point at the exact stat that moved.
        EXPECT_EQ(got, want) << c.file;
    }
}

TEST(Golden, RunsAreDeterministicAcrossRepeats)
{
    const GoldenCase c = goldenCases().front();
    EXPECT_EQ(serialize(runCase(c)), serialize(runCase(c)));
}

TEST(Golden, ByteCompareCatchesAPerturbedStat)
{
    // Self-check of the mechanism: a single off-by-one in any stat
    // must change the serialized bytes.
    const GoldenCase c = goldenCases().front();
    SimResult r = runCase(c);
    const std::string clean = serialize(r);
    r.cycles += 1;
    EXPECT_NE(serialize(r), clean);
    r.cycles -= 1;
    r.dpf.useless += 1;
    EXPECT_NE(serialize(r), clean);
}

TEST(Golden, SerializedGoldensRoundTrip)
{
    if (regenRequested())
        GTEST_SKIP() << "regenerating";
    for (const GoldenCase &c : goldenCases()) {
        const std::string want = readFile(goldenPath(c.file));
        ASSERT_FALSE(want.empty()) << c.file;
        const SimResult parsed =
            simResultFromJson(Json::parse(want));
        EXPECT_EQ(serialize(parsed), want) << c.file;
    }
}

/** One digest line: event count, call count, hash of saveTrace. */
std::string
traceDigest(const std::string &label, const TraceBuffer &trace)
{
    std::ostringstream bytes;
    EXPECT_TRUE(saveTrace(trace, bytes)) << label;
    std::ostringstream line;
    line << label << " events=" << trace.size()
         << " calls=" << trace.calls() << " fnv=" << std::hex
         << std::setw(16) << std::setfill('0') << fnv1a(bytes.str())
         << "\n";
    return line.str();
}

TEST(Golden, DbWorkloadTracesMatchCheckedInDigests)
{
    // An explicit scale, so CGP_SCALE does not change the digests.
    const DbWorkloadSet set = WorkloadFactory::buildDbSet(0.25);

    std::string got;
    for (const Workload &w : set.workloads) {
        got += traceDigest(w.name, *w.trace);
        if (w.queryLibrary) {
            for (std::size_t i = 0; i < w.queryLibrary->size(); ++i)
                got += traceDigest(
                    w.name + "/query" + std::to_string(i),
                    (*w.queryLibrary)[i]);
        }
        if (w.switchStub)
            got += traceDigest(w.name + "/stub", *w.switchStub);
    }
    std::string names;
    for (const Function &f : set.registry->functions())
        names += f.name + "\n";
    std::ostringstream reg;
    reg << "registry functions=" << set.registry->size()
        << " fnv=" << std::hex << std::setw(16) << std::setfill('0')
        << fnv1a(names) << "\n";
    got += reg.str();

    const std::string path = goldenPath("db_trace_digests.txt");
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got;
        return;
    }
    const std::string want = readFile(path);
    ASSERT_FALSE(want.empty())
        << path << " is missing — regenerate with "
        << "CGP_GOLDEN_REGEN=1 ./test_golden";
    EXPECT_EQ(got, want);
}

/** Every profile weight as sorted text lines: call edges
 *  "c caller callee weight", block edges "b fid from to weight" and
 *  entries "e fid count", each group in ascending key order. */
struct ProfileLines
{
    std::size_t callEdges = 0;
    std::size_t blockEdges = 0;
    std::size_t entries = 0;
    std::string text;
};

ProfileLines
profileLines(const ExecutionProfile &profile, std::size_t functions)
{
    ProfileLines out;
    std::ostringstream text;
    for (FunctionId fid = 0; fid < functions; ++fid) {
        std::vector<ExecutionProfile::CallEdge> edges(
            profile.callees(fid).begin(), profile.callees(fid).end());
        std::sort(edges.begin(), edges.end(),
                  [](const auto &a, const auto &b) {
                      return a.callee < b.callee;
                  });
        for (const auto &e : edges)
            text << "c " << fid << " " << e.callee << " " << e.weight
                 << "\n";
        out.callEdges += edges.size();
    }
    for (FunctionId fid = 0; fid < functions; ++fid) {
        std::vector<ExecutionProfile::BlockEdge> edges(
            profile.blockEdges(fid).begin(),
            profile.blockEdges(fid).end());
        std::sort(edges.begin(), edges.end(),
                  [](const auto &a, const auto &b) {
                      return std::pair(a.from, a.to)
                          < std::pair(b.from, b.to);
                  });
        for (const auto &e : edges)
            text << "b " << fid << " " << e.from << " " << e.to << " "
                 << e.weight << "\n";
        out.blockEdges += edges.size();
    }
    for (FunctionId fid = 0; fid < functions; ++fid) {
        if (const std::uint64_t n = profile.entryCount(fid)) {
            text << "e " << fid << " " << n << "\n";
            ++out.entries;
        }
    }
    out.text = text.str();
    return out;
}

/** One digest line for a code image: its function order and every
 *  block address, one FNV-1a-64 each. */
std::string
imageDigest(const FunctionRegistry &registry, const CodeImage &image)
{
    std::ostringstream order;
    for (const FunctionId fid : image.order())
        order << fid << "\n";
    std::ostringstream addrs;
    for (const Function &f : registry.functions()) {
        for (std::uint16_t b = 0; b < f.blocks.size(); ++b)
            addrs << f.id << " " << b << " " << std::hex
                  << image.blockAddr(f.id, b) << std::dec << "\n";
    }
    std::ostringstream line;
    line << layoutName(image.kind()) << " functions="
         << image.order().size() << " limit=" << std::hex
         << image.textLimit() << std::setfill('0') << " order="
         << std::setw(16) << fnv1a(order.str())
         << " blocks=" << std::setw(16) << fnv1a(addrs.str()) << "\n";
    return line.str();
}

TEST(Golden, DbOmLayoutMatchesCheckedInDigests)
{
    // An explicit scale, so CGP_SCALE does not change the digests.
    const DbWorkloadSet set = WorkloadFactory::buildDbSet(0.25);
    const FunctionRegistry &reg = *set.registry;
    const ExecutionProfile &profile = *set.omProfile;

    const ProfileLines lines = profileLines(profile, reg.size());
    std::ostringstream got;
    got << "om-profile calls=" << profile.totalCalls()
        << " call-edges=" << lines.callEdges
        << " block-edges=" << lines.blockEdges
        << " entries=" << lines.entries << " fnv=" << std::hex
        << std::setw(16) << std::setfill('0') << fnv1a(lines.text)
        << "\n";
    const LayoutBuilder builder(reg);
    got << imageDigest(reg, builder.buildOriginal());
    got << imageDigest(reg, builder.buildPettisHansen(profile));

    const std::string path = goldenPath("om_layout_digests.txt");
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got.str();
        return;
    }
    const std::string want = readFile(path);
    ASSERT_FALSE(want.empty())
        << path << " is missing — regenerate with "
        << "CGP_GOLDEN_REGEN=1 ./test_golden";
    EXPECT_EQ(got.str(), want);
}

/** The smoke-a program (micro_components' BM_CoreRun), built at an
 *  explicit scale so CGP_SCALE does not change the digests. */
Workload
smokeA()
{
    spec::SpecProgramSpec program;
    program.name = "smoke-a";
    program.functions = 60;
    program.hotFunctions = 30;
    program.workPerCall = 50.0;
    program.trainInstrs = 120'000;
    program.testInstrs = 30'000;
    return WorkloadFactory::buildSpec(program, 1.0);
}

/** One digest line for a sampled run of @p base with warm-up budget
 *  @p warmup: hashes of the checkpoint an in-memory store receives
 *  and of the run's SimResult. */
std::string
warmDigest(const Workload &w, const SimConfig &base,
           std::uint64_t warmup)
{
    SimConfig config = SimConfig::withSampling(base, 2000, 10000, warmup);
    std::string checkpoint;
    config.sample.checkpoints.save =
        [&checkpoint](const std::string &, Json &&doc) {
            checkpoint = doc.dump();
        };
    const SimResult r = runSimulation(w, config);
    EXPECT_FALSE(checkpoint.empty()) << base.describe() << " " << warmup;

    std::ostringstream line;
    line << w.name << " " << base.describe() << " warmup=" << warmup
         << std::hex << std::setfill('0') << " checkpoint="
         << std::setw(16) << fnv1a(checkpoint)
         << " result=" << std::setw(16) << fnv1a(toJson(r).dump())
         << "\n";
    return line.str();
}

TEST(Golden, WarmCheckpointsMatchCheckedInDigests)
{
    std::string got;
    const Workload smoke = smokeA();
    for (const SimConfig &base :
         {SimConfig::o5(), SimConfig::withCgp(LayoutKind::PettisHansen, 4),
          SimConfig::withIPlusD(DataPrefetchKind::Combined, true)}) {
        for (const std::uint64_t warmup : {17ull, 1000ull, 100000ull})
            got += warmDigest(smoke, base, warmup);
    }
    const DbWorkloadSet set = WorkloadFactory::buildDbSet(0.03);
    for (const Workload &w : set.workloads) {
        if (w.name == "wisc-prof") {
            got += warmDigest(
                w, SimConfig::withCgp(LayoutKind::PettisHansen, 4),
                100000);
        }
    }

    const std::string path = goldenPath("warm_checkpoint_digests.txt");
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got;
        return;
    }
    const std::string want = readFile(path);
    ASSERT_FALSE(want.empty())
        << path << " is missing — regenerate with "
        << "CGP_GOLDEN_REGEN=1 ./test_golden";
    EXPECT_EQ(got, want);
}

/** A core geometry of the pinned matrix: Table 1 with some limits
 *  changed. */
struct Geometry
{
    const char *name;
    CoreConfig core;
    std::uint32_t l1iLineBytes = 32;
};

std::vector<Geometry>
coreGeometries()
{
    std::vector<Geometry> out;
    out.push_back({"table1", CoreConfig{}});
    struct Queues
    {
        const char *name;
        unsigned fetchQueue, rob, lsq;
    };
    for (const Queues q : {Queues{"fq1/rob2/lsq1", 1, 2, 1},
                           Queues{"fq3/rob5/lsq16", 3, 5, 16},
                           Queues{"fq16/rob63/lsq7", 16, 63, 7}}) {
        CoreConfig c;
        c.fetchQueueSize = q.fetchQueue;
        c.rsSize = q.rob;
        c.lsqSize = q.lsq;
        out.push_back({q.name, c});
    }
    for (const unsigned width : {1u, 8u}) {
        CoreConfig fetch;
        fetch.fetchWidth = width;
        out.push_back({width == 1 ? "fetch1" : "fetch8", fetch});
        CoreConfig commit;
        commit.commitWidth = width;
        out.push_back({width == 1 ? "commit1" : "commit8", commit});
    }
    // Fetch runs cut by the width, by the queue's room and by a line
    // end, and fetch with no line to cut at.
    CoreConfig perfect;
    perfect.perfectICache = true;
    out.push_back({"perfect-icache", perfect});
    CoreConfig fetch3;
    fetch3.fetchWidth = 3;
    out.push_back({"fetch3", fetch3});
    out.push_back({"l1i-line16", CoreConfig{}, 16});
    out.push_back({"l1i-line64", CoreConfig{}, 64});
    return out;
}

/** One line for smoke-a on the O5 image under @p engine ("none",
 *  "nl4" or "cgp4") and @p g: the core's counters, the L1 demand
 *  traffic, the L2 port and an FNV-1a-64 of all three caches' state. */
std::string
geometryLine(const Workload &w, const char *engine, const Geometry &g)
{
    const CodeImage image = LayoutBuilder(*w.registry).buildOriginal();
    InstructionExpander stream(*w.registry, image, *w.trace);
    HierarchyConfig hier;
    hier.l1i.lineBytes = g.l1iLineBytes;
    MemoryHierarchy mem(hier);
    std::unique_ptr<InstrPrefetcher> pf;
    if (std::string(engine) == "nl4")
        pf = std::make_unique<NextNLinePrefetcher>(mem.l1i(), 4);
    else if (std::string(engine) == "cgp4")
        pf = std::make_unique<CgpPrefetcher>(
            mem.l1i(), CghcConfig::twoLevel2K32K(), 4);
    CoreConfig cfg = g.core;
    // Every run takes well under this: a livelock times out instead
    // of hanging the suite.
    cfg.maxCycles = 4'000'000;
    Core core(stream, mem, pf.get(), cfg);
    core.run();

    std::uint64_t caches = fnv1a(mem.l1i().saveState().dump());
    caches = fnv1a(mem.l1d().saveState().dump(), caches);
    caches = fnv1a(mem.l2().saveState().dump(), caches);
    std::ostringstream line;
    line << engine << " " << g.name << " cycles=" << core.cycles()
         << " committed=" << core.committedInstrs()
         << " idle=" << core.idleCycles()
         << " fetch_stall=" << core.fetchIcacheStallCycles()
         << " l1i=" << mem.l1i().demandAccesses() << "/"
         << mem.l1i().demandMisses()
         << " l1d=" << mem.l1d().demandAccesses() << "/"
         << mem.l1d().demandMisses()
         << " port=" << mem.port().requests() << "/"
         << mem.port().waitCycles() << " caches=" << std::hex
         << std::setw(16) << std::setfill('0') << caches << "\n";
    return line.str();
}

TEST(Golden, CoreGeometriesMatchCheckedInFile)
{
    // The other goldens run only the Table 1 core; this file pins
    // how the fetch queue, ROB, LSQ and stage widths interact.
    std::string got;
    const Workload smoke = smokeA();
    for (const char *engine : {"none", "nl4", "cgp4"}) {
        for (const Geometry &g : coreGeometries())
            got += geometryLine(smoke, engine, g);
    }

    const std::string path = goldenPath("core_geometry_counts.txt");
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got;
        return;
    }
    const std::string want = readFile(path);
    ASSERT_FALSE(want.empty())
        << path << " is missing — regenerate with "
        << "CGP_GOLDEN_REGEN=1 ./test_golden";
    EXPECT_EQ(got, want);
}

/** The SimConfig fields a campaign sets, as one canonical line. */
std::string
configLine(const SimConfig &c)
{
    char acc[32];
    const auto accEnd =
        std::to_chars(acc, acc + sizeof acc, c.mem.arbiter.lowAccuracy)
            .ptr;
    std::ostringstream line;
    line << "layout=" << layoutName(c.layout)
         << " prefetch=" << prefetchKindName(c.prefetch)
         << " depth=" << c.depth << " skip=" << c.runaheadSkip
         << " cghc=" << c.cghc.l1Bytes << "/" << c.cghc.l2Bytes
         << (c.cghc.infinite ? "/inf" : "") << " assoc=" << c.cghc.assoc
         << " dpf=" << dataPrefetchKindName(c.dprefetch.kind)
         << " perfect=" << c.perfectICache
         << " arb=" << c.mem.arbiter.enabled << "/"
         << std::string(acc, accEnd) << "/" << c.mem.arbiter.probePeriod
         << "/" << c.mem.arbiter.filterWindow
         << " server=" << c.server.enabled << "/" << c.server.cores
         << "/" << c.server.sessions << "/" << c.server.totalQueries
         << " sample=" << c.sample.enabled << "/"
         << c.sample.windowCycles << "/" << c.sample.periodCycles << "/"
         << c.sample.warmupInstrs;
    return line.str();
}

TEST(Golden, CampaignJobListsMatchCheckedInFile)
{
    std::string got;
    for (const std::string &name : exp::campaignNames()) {
        const exp::CampaignSpec spec = exp::paperCampaign(name);
        const std::vector<exp::JobSpec> jobs = exp::expandJobs(spec);
        got += name + " fingerprint=" +
            exp::fingerprint(spec, jobs, "scale=0.25") +
            " jobs=" + std::to_string(jobs.size()) + "\n";
        for (const exp::JobSpec &j : jobs)
            got += "  " + j.key() + " => " + configLine(j.config) + "\n";
    }

    const std::string path = goldenPath("campaign_jobs.txt");
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got;
        return;
    }
    const std::string want = readFile(path);
    ASSERT_FALSE(want.empty())
        << path << " is missing — regenerate with "
        << "CGP_GOLDEN_REGEN=1 ./test_golden";
    EXPECT_EQ(got, want);
}

/** A campaign whose every (workload, config) pair another campaign
 *  also runs prints only what that campaign's results could print:
 *  its section belongs in the other campaign's printer. */
TEST(Golden, NoCampaignRunsOnlyAnotherCampaignsJobs)
{
    std::vector<std::pair<std::string, std::set<std::string>>> runs;
    for (const std::string &name : exp::campaignNames()) {
        std::set<std::string> pairs;
        for (const exp::JobSpec &j :
             exp::expandJobs(exp::paperCampaign(name)))
            pairs.insert(j.workload + " " + configLine(j.config));
        runs.emplace_back(name, std::move(pairs));
    }
    for (const auto &[name, pairs] : runs) {
        std::string supersets;
        for (const auto &[other, others] : runs) {
            if (other != name &&
                std::includes(others.begin(), others.end(),
                              pairs.begin(), pairs.end()))
                supersets += " " + other;
        }
        EXPECT_TRUE(supersets.empty())
            << name << " runs only jobs that these also run:"
            << supersets;
    }
}

} // namespace
} // namespace cgp
