/**
 * @file
 * Tests for the report writers: both forms render the key numbers
 * and refuse mismatched comparisons.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "harness/report.hh"
#include "util/logging.hh"

namespace cgp
{
namespace
{

SimResult
sample(const char *config, Cycle cycles)
{
    SimResult r;
    r.workload = "w";
    r.config = config;
    r.cycles = cycles;
    r.instrs = 1000;
    r.icacheAccesses = 400;
    r.icacheMisses = 40;
    r.nl.issued = 90;
    r.nl.prefHits = 50;
    r.nl.delayedHits = 10;
    r.nl.useless = 30;
    r.cghc.issued = 10;
    r.cghc.prefHits = 8;
    r.cghc.useless = 2;
    r.cghcAccesses = 100;
    r.cghcHits = 80;
    r.busLines = 123;
    return r;
}

TEST(Report, SingleRunContainsKeyMetrics)
{
    std::ostringstream os;
    writeReport(sample("O5+OM+CGP_4", 2000), os);
    const std::string out = os.str();
    EXPECT_NE(out.find("O5+OM+CGP_4"), std::string::npos);
    EXPECT_NE(out.find("2,000"), std::string::npos);
    EXPECT_NE(out.find("icache_misses"), std::string::npos);
    EXPECT_NE(out.find("nl.issued"), std::string::npos);
    EXPECT_NE(out.find("cghc_hits"), std::string::npos);
}

TEST(Report, ComparisonNormalizesToFirst)
{
    std::ostringstream os;
    writeComparison({sample("A", 1000), sample("B", 500)}, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("1.000"), std::string::npos);
    EXPECT_NE(out.find("0.500"), std::string::npos);
}

/** A result in which every field, nested blocks included, holds a
 *  distinct non-default value, so a dropped or swapped field cannot
 *  survive a round trip. */
SimResult
fullResult()
{
    SimResult r;
    r.workload = "wisc-prof";
    r.config = "O5+OM+CGP_4";
    std::uint64_t next = 1;
    const auto uniq = [&next]() { return next++; };
    r.cycles = uniq();
    r.instrs = uniq();
    r.icacheAccesses = uniq();
    r.icacheMisses = uniq();
    r.dcacheAccesses = uniq();
    r.dcacheMisses = uniq();
    r.l2Misses = uniq();
    for (PrefetchBreakdown *b : {&r.nl, &r.cghc, &r.dpf}) {
        b->issued = uniq();
        b->prefHits = uniq();
        b->delayedHits = uniq();
        b->useless = uniq();
    }
    r.squashedPrefetches = uniq();
    r.dSquashedPrefetches = uniq();
    for (ArbiterBreakdown *b : {&r.arbNl, &r.arbCghc, &r.arbDpf}) {
        b->issued = uniq();
        b->deferred = uniq();
        b->dropped = uniq();
        b->duplicateMerged = uniq();
    }
    r.busLines = uniq();
    r.branchMispredicts = uniq();
    r.cghcAccesses = uniq();
    r.cghcHits = uniq();
    r.prefetchDegraded = true;
    r.degradedReason = "cghc pressure";
    r.instrsPerCall = 43.25;

    r.serverEnabled = true;
    server::ServerStats &srv = r.server;
    srv.cores = 2;
    srv.sessions = uniq();
    srv.cycles = uniq();
    srv.queriesServed = uniq();
    srv.binds = uniq();
    srv.latencyP50 = uniq();
    srv.latencyP95 = uniq();
    srv.latencyP99 = uniq();
    srv.portWaitCycles = uniq();
    srv.perCore.resize(2);
    for (server::ServerCoreStats &c : srv.perCore) {
        c.cycles = uniq();
        c.instrs = uniq();
        c.idleCycles = uniq();
        c.icacheAccesses = uniq();
        c.icacheMisses = uniq();
        c.dcacheAccesses = uniq();
        c.dcacheMisses = uniq();
        c.busLines = uniq();
        c.portWaitCycles = uniq();
        c.queries = uniq();
        c.binds = uniq();
    }

    r.sampledEnabled = true;
    sample::SampledStats &smp = r.sampled;
    smp.windows = uniq();
    smp.detailedCycles = uniq();
    smp.detailedInstrs = uniq();
    smp.warmedInstrs = uniq();
    smp.skippedCycles = uniq();
    smp.checkpointUsed = true;
    smp.checkpointSaved = true;
    const auto uniqReal = [&]() {
        return static_cast<double>(uniq()) + 0.25;
    };
    for (sample::SampledEstimate *e :
         {&smp.cpi, &smp.l1iMissRate, &smp.l1dMissRate,
          &smp.fetchStallPerInstr}) {
        e->samples = uniq();
        e->mean = uniqReal();
        e->sem = uniqReal();
        e->ciLow = uniqReal();
        e->ciHigh = uniqReal();
    }
    return r;
}

TEST(Report, SimResultJsonRoundTrip)
{
    const SimResult r = fullResult();

    const Json j = toJson(r);
    const SimResult back = simResultFromJson(j);
    EXPECT_EQ(back, r);

    // Through text too: serialize, parse, reconstruct.
    const SimResult back2 =
        simResultFromJson(Json::parse(j.dump(2)));
    EXPECT_EQ(back2, r);

    // Without the enable flags the blocks are neither written nor
    // read back.
    SimResult legacy = r;
    legacy.serverEnabled = false;
    legacy.server = {};
    legacy.sampledEnabled = false;
    legacy.sampled = {};
    const Json lj = toJson(legacy);
    EXPECT_FALSE(lj.contains("server"));
    EXPECT_FALSE(lj.contains("sampled"));
    EXPECT_EQ(simResultFromJson(lj), legacy);
}

TEST(Report, SimResultJsonCarriesBothPrefetchSources)
{
    const Json j = toJson(sample("X", 10));
    EXPECT_EQ(j.at("nl").at("issued").asUint(), 90u);
    EXPECT_EQ(j.at("cghc").at("pref_hits").asUint(), 8u);
    EXPECT_EQ(j.at("workload").asString(), "w");
}

TEST(Report, SimResultFromJsonRejectsMissingFields)
{
    Json j = toJson(sample("X", 10));
    Json stripped = Json::object();
    stripped.set("workload", j.at("workload"));
    EXPECT_THROW(simResultFromJson(stripped), std::runtime_error);

    // The arbiter blocks are required like every other key.
    Json noArb = toJson(fullResult());
    ASSERT_TRUE(noArb.remove("arb_nl"));
    EXPECT_THROW(simResultFromJson(noArb), std::runtime_error);
}

TEST(Report, ComparisonRejectsMixedWorkloads)
{
    detail::setThrowOnError(true);
    SimResult a = sample("A", 100);
    SimResult b = sample("B", 100);
    b.workload = "other";
    EXPECT_THROW(
        {
            std::ostringstream os;
            writeComparison({a, b}, os);
        },
        std::logic_error);
    detail::setThrowOnError(false);
}

} // namespace
} // namespace cgp
