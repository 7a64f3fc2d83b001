/**
 * @file
 * Harness tests: configuration naming, workload construction, and
 * end-to-end simulation invariants on a small SPEC proxy (fast) —
 * the full DB workloads are exercised by integration_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "harness/simulator.hh"
#include "harness/workload.hh"

namespace cgp
{
namespace
{

SimConfig
withCghc(const CghcConfig &geom)
{
    return SimConfig::withCgpGeometry(LayoutKind::PettisHansen, 4,
                                      geom);
}

TEST(SimConfig, DescribeMatchesPaperLabels)
{
    EXPECT_EQ(SimConfig::o5().describe(), "O5");
    EXPECT_EQ(SimConfig::o5Om().describe(), "O5+OM");
    EXPECT_EQ(SimConfig::withNL(LayoutKind::PettisHansen, 4)
                  .describe(),
              "O5+OM+NL_4");
    EXPECT_EQ(SimConfig::withCgp(LayoutKind::Original, 2).describe(),
              "O5+CGP_2");
    EXPECT_EQ(SimConfig::perfectICacheOn(LayoutKind::PettisHansen)
                  .describe(),
              "O5+OM+perf-Icache");
    EXPECT_EQ(
        SimConfig::withRunAheadNL(LayoutKind::PettisHansen, 4, 2)
            .describe(),
        "O5+OM+RANL_4skip2");
}

TEST(SimConfig, DefaultsMatchTable1)
{
    const SimConfig c = SimConfig::o5();
    EXPECT_EQ(c.core.fetchWidth, 4u);
    EXPECT_EQ(c.core.fetchQueueSize, 16u);
    EXPECT_EQ(c.core.lsqSize, 16u);
    EXPECT_EQ(c.core.rsSize, 64u);
    EXPECT_EQ(c.core.intAlus, 4u);
    EXPECT_EQ(c.core.multipliers, 2u);
    EXPECT_EQ(c.core.memPorts, 4u);
    EXPECT_EQ(c.mem.l1i.sizeBytes, 32u * 1024);
    EXPECT_EQ(c.mem.l1i.assoc, 2u);
    EXPECT_EQ(c.mem.l1i.lineBytes, 32u);
    EXPECT_EQ(c.mem.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(c.mem.l2.assoc, 4u);
    EXPECT_EQ(c.mem.l2.hitLatency, 16u);
    EXPECT_EQ(1u << c.core.branch.phtBits, 2048u);
}

struct ProxyWorkload
{
    Workload w;

    ProxyWorkload()
    {
        spec::SpecProgramSpec spec;
        spec.name = "harness-proxy";
        spec.functions = 80;
        spec.hotFunctions = 40;
        spec.workPerCall = 60.0;
        spec.trainInstrs = 300'000;
        spec.testInstrs = 60'000;
        w = WorkloadFactory::buildSpec(spec);
    }
};

TEST(Simulator, BasicInvariants)
{
    ProxyWorkload p;
    const SimResult r = runSimulation(p.w, SimConfig::o5());
    EXPECT_GT(r.instrs, 250'000u);
    EXPECT_GT(r.cycles, r.instrs / 4); // 4-wide ceiling
    EXPECT_GT(r.icacheAccesses, 0u);
    EXPECT_LE(r.icacheMisses, r.icacheAccesses);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_EQ(r.workload, "harness-proxy");
    EXPECT_EQ(r.config, "O5");
}

TEST(Simulator, PerfectICacheIsLowerBoundOnCycles)
{
    ProxyWorkload p;
    const auto base = runSimulation(p.w, SimConfig::o5Om());
    const auto nl =
        runSimulation(p.w, SimConfig::withNL(LayoutKind::PettisHansen,
                                             4));
    const auto cgp = runSimulation(
        p.w, SimConfig::withCgp(LayoutKind::PettisHansen, 4));
    const auto perfect = runSimulation(
        p.w, SimConfig::perfectICacheOn(LayoutKind::PettisHansen));

    EXPECT_LE(perfect.cycles, base.cycles);
    EXPECT_LE(perfect.cycles, nl.cycles);
    EXPECT_LE(perfect.cycles, cgp.cycles);
    EXPECT_EQ(perfect.icacheMisses, 0u);
}

TEST(Simulator, PrefetchersReduceMisses)
{
    ProxyWorkload p;
    const auto base = runSimulation(p.w, SimConfig::o5Om());
    const auto nl = runSimulation(
        p.w, SimConfig::withNL(LayoutKind::PettisHansen, 4));
    const auto cgp = runSimulation(
        p.w, SimConfig::withCgp(LayoutKind::PettisHansen, 4));
    EXPECT_LT(nl.icacheMisses, base.icacheMisses);
    EXPECT_LT(cgp.icacheMisses, base.icacheMisses);
    EXPECT_GT(cgp.cghcAccesses, 0u);
    EXPECT_GT(cgp.cghc.issued + cgp.squashedPrefetches, 0u);
}

TEST(Simulator, PrefetchAccountingConserved)
{
    ProxyWorkload p;
    const auto r = runSimulation(
        p.w, SimConfig::withCgp(LayoutKind::PettisHansen, 4));
    const auto total = r.totalPrefetch();
    EXPECT_EQ(total.issued,
              total.prefHits + total.delayedHits + total.useless);
    EXPECT_EQ(total.issued, r.nl.issued + r.cghc.issued);
}

TEST(Simulator, OmScalesInstructionCount)
{
    ProxyWorkload p;
    const auto o5 = runSimulation(p.w, SimConfig::o5());
    const auto om = runSimulation(p.w, SimConfig::o5Om());
    const double ratio = static_cast<double>(om.instrs) /
        static_cast<double>(o5.instrs);
    EXPECT_NEAR(ratio, 0.88, 0.04);
}

TEST(Simulator, CghcGeometriesAllRun)
{
    ProxyWorkload p;
    for (const auto &geom :
         {CghcConfig::oneLevel1K(), CghcConfig::oneLevel32K(),
          CghcConfig::twoLevel1K16K(), CghcConfig::twoLevel2K32K(),
          CghcConfig::infiniteSize()}) {
        const auto r = runSimulation(p.w, withCghc(geom));
        EXPECT_GT(r.cycles, 0u) << geom.describe();
        EXPECT_GT(r.cghcAccesses, 0u) << geom.describe();
    }
}

TEST(WorkloadFactory, ScaleReadsEnvironment)
{
    // Whatever the ambient value, the scale is positive and finite.
    const double s = WorkloadFactory::scale();
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1000.0);
    EXPECT_GT(WorkloadFactory::quantumInstrs(), 0u);
}

TEST(WorkloadFactory, ScaleParsesTheWholeValue)
{
    const char *ambient = std::getenv("CGP_SCALE");
    const std::string saved = ambient != nullptr ? ambient : "";
    const auto scaleOf = [](const char *text) {
        ::setenv("CGP_SCALE", text, 1);
        return WorkloadFactory::scale();
    };
    EXPECT_EQ(scaleOf("0.06"), 0.06);
    EXPECT_EQ(scaleOf("1e9"), 1e9);
    // Anything else falls back to the default.
    for (const char *bad :
         {"0.5x", "x0.5", "", " 0.5", "inf", "-inf", "nan", "0", "-0.5",
          "1e999"})
        EXPECT_EQ(scaleOf(bad), 0.25) << "'" << bad << "'";
    if (ambient != nullptr)
        ::setenv("CGP_SCALE", saved.c_str(), 1);
    else
        ::unsetenv("CGP_SCALE");

    // A scale whose row counts overflow 32 bits is refused before
    // anything is built.
    for (const double s :
         {1e9, 429'497.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()})
        EXPECT_THROW(WorkloadFactory::buildDbSet(s),
                     std::invalid_argument)
            << s;
}

TEST(WorkloadFactory, ExplicitScaleBuildsAreDeterministic)
{
    spec::SpecProgramSpec s;
    s.name = "scale-probe";
    s.functions = 40;
    s.hotFunctions = 20;
    s.workPerCall = 50.0;
    s.trainInstrs = 120'000;
    s.testInstrs = 30'000;

    // Same explicit scale twice: identical traces, independent of
    // the CGP_SCALE environment.
    const Workload a = WorkloadFactory::buildSpec(s, 0.1);
    const Workload b = WorkloadFactory::buildSpec(s, 0.1);
    ASSERT_EQ(a.trace->size(), b.trace->size());
    const SimResult ra = runSimulation(a, SimConfig::o5Om());
    const SimResult rb = runSimulation(b, SimConfig::o5Om());
    EXPECT_TRUE(ra == rb);

    // A bigger scale grows the workload (the knob saturates at
    // 0.25, so both points sit below that).
    const Workload big = WorkloadFactory::buildSpec(s, 0.25);
    EXPECT_GT(big.trace->size(), a.trace->size());

    // Non-positive scales are rejected rather than silently
    // defaulted.
    EXPECT_THROW(WorkloadFactory::buildSpec(s, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(WorkloadFactory::buildSpec(s, -1.0),
                 std::invalid_argument);
}

} // namespace
} // namespace cgp
