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
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaigns.hh"
#include "harness/report.hh"
#include "harness/simulator.hh"

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

} // namespace
} // namespace cgp
