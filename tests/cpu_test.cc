/**
 * @file
 * Tests for the out-of-order core: throughput bounds, in-order
 * commit, I-cache stall behaviour, perfect-I$ mode, branch-mispredict
 * penalties, and the prefetcher hook points.
 */

#include <gtest/gtest.h>

#include <memory>

#include "codegen/layout.hh"
#include "cpu/core.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cgp.hh"
#include "trace/expand.hh"
#include "trace/recorder.hh"

namespace cgp
{
namespace
{

struct Machine
{
    FunctionRegistry reg;
    TraceBuffer trace;
    FunctionId a, b;

    Machine()
    {
        a = reg.declare("A", FunctionTraits::medium());
        b = reg.declare("B", FunctionTraits::small());
    }

    void
    record(unsigned iterations, unsigned work = 50)
    {
        TraceRecorder rec(trace);
        rec.call(a);
        for (unsigned i = 0; i < iterations; ++i) {
            rec.work(work);
            rec.call(b);
            rec.work(work / 2);
            rec.ret();
            rec.branch(i % 4 == 0);
        }
        rec.ret();
    }

    /** Run the trace through a fresh machine; owns the core. */
    Core &
    run(CoreConfig cfg = {}, InstrPrefetcher *pf = nullptr)
    {
        LayoutBuilder builder(reg);
        image = builder.buildOriginal();
        expander =
            std::make_unique<InstructionExpander>(reg, image, trace);
        mem = std::make_unique<MemoryHierarchy>();
        core = std::make_unique<Core>(*expander, *mem, pf, cfg);
        core->run();
        return *core;
    }

    CodeImage image;
    std::unique_ptr<InstructionExpander> expander;
    std::unique_ptr<MemoryHierarchy> mem;
    std::unique_ptr<Core> core;
};

TEST(Core, CommitsEveryInstruction)
{
    Machine m;
    m.record(50);
    const Core &core = m.run();
    EXPECT_EQ(core.committedInstrs(), m.expander->emittedInstrs());
    EXPECT_GT(core.cycles(), 0u);
}

TEST(Core, IpcWithinMachineWidth)
{
    Machine m;
    m.record(200);
    const Core &core = m.run();
    EXPECT_GT(core.ipc(), 0.1);
    EXPECT_LE(core.ipc(), 4.0); // Table 1: 4-wide
}

TEST(Core, PerfectICacheIsFaster)
{
    Machine m1, m2;
    m1.record(300);
    m2.record(300);
    CoreConfig perfect;
    perfect.perfectICache = true;
    const Core &base = m1.run();
    const Core &ideal = m2.run(perfect);
    EXPECT_EQ(base.committedInstrs(), ideal.committedInstrs());
    EXPECT_LT(ideal.cycles(), base.cycles());
    // No I-cache accesses at all in perfect mode.
    EXPECT_EQ(m2.mem->l1i().demandAccesses(), 0u);
}

TEST(Core, MaxInstrsTruncatesTheRun)
{
    Machine m;
    m.record(500);
    CoreConfig cfg;
    cfg.maxInstrs = 1000;
    const Core &core = m.run(cfg);
    EXPECT_GE(core.committedInstrs(), 1000u);
    EXPECT_LT(core.committedInstrs(), 1200u);
}

TEST(Core, DeterministicCycleCounts)
{
    Machine m1, m2;
    m1.record(100);
    m2.record(100);
    const Core &c1 = m1.run();
    const Core &c2 = m2.run();
    EXPECT_EQ(c1.cycles(), c2.cycles());
    EXPECT_EQ(c1.committedInstrs(), c2.committedInstrs());
}

TEST(Core, BranchStatsPopulated)
{
    Machine m;
    m.record(200);
    const Core &core = m.run();
    EXPECT_GT(core.branchUnit().lookups(), 0u);
    // Calls and returns dominate; after warmup most predict fine.
    EXPECT_LT(core.branchUnit().mispredicts(),
              core.branchUnit().lookups() / 2);
}

TEST(Core, ColdMispredictsCostCycles)
{
    // Same instruction stream, one run with a crippled RAS (depth
    // 1, wrecked by nesting) would be ideal, but the RAS depth
    // config covers it: compare a 32-deep RAS against a 1-deep one
    // under heavy nesting.
    FunctionRegistry reg;
    std::vector<FunctionId> fns;
    for (int i = 0; i < 6; ++i) {
        fns.push_back(reg.declare("n" + std::to_string(i),
                                  FunctionTraits::small()));
    }
    TraceBuffer trace;
    TraceRecorder rec(trace);
    // Deep nesting: n0 -> n1 -> ... -> n5, repeatedly.
    for (int r = 0; r < 50; ++r) {
        for (int i = 0; i < 6; ++i) {
            rec.call(fns[static_cast<std::size_t>(i)]);
            rec.work(10);
        }
        for (int i = 0; i < 6; ++i)
            rec.ret();
    }

    LayoutBuilder builder(reg);
    const CodeImage image = builder.buildOriginal();

    auto run_with_ras = [&](unsigned depth) {
        InstructionExpander ex(reg, image, trace);
        MemoryHierarchy mem;
        CoreConfig cfg;
        cfg.branch.rasEntries = depth;
        Core core(ex, mem, nullptr, cfg);
        core.run();
        return core.cycles();
    };
    const Cycle deep = run_with_ras(32);
    const Cycle shallow = run_with_ras(2);
    EXPECT_LT(deep, shallow);
}

TEST(Core, TinyQueuesWrapAndCommitEverything)
{
    // Fetch queue and ROB are fixed-capacity rings; at these sizes
    // both wrap thousands of times over the run.
    struct Sizes
    {
        unsigned fetchQueue, rob, lsq;
    };
    for (const Sizes sz : {Sizes{1, 2, 1}, Sizes{3, 5, 16}}) {
        CoreConfig cfg;
        cfg.fetchQueueSize = sz.fetchQueue;
        cfg.rsSize = sz.rob;
        cfg.lsqSize = sz.lsq;
        Machine m1, m2;
        m1.record(200);
        m2.record(200);
        const Core &c1 = m1.run(cfg);
        const Core &c2 = m2.run(cfg);
        EXPECT_EQ(c1.committedInstrs(), m1.expander->emittedInstrs());
        EXPECT_GT(c1.committedInstrs(), 1000u * sz.rob);
        EXPECT_TRUE(c1.drained());
        EXPECT_EQ(c1.cycles(), c2.cycles());
        EXPECT_EQ(c1.committedInstrs(), c2.committedInstrs());
    }
}

TEST(Core, CgpHooksFireDuringExecution)
{
    Machine m;
    m.record(100);
    LayoutBuilder builder(m.reg);
    m.image = builder.buildOriginal();
    m.expander =
        std::make_unique<InstructionExpander>(m.reg, m.image, m.trace);
    m.mem = std::make_unique<MemoryHierarchy>();
    CgpPrefetcher cgp(m.mem->l1i(), CghcConfig::twoLevel2K32K(), 4);
    Core core(*m.expander, *m.mem, &cgp, CoreConfig{});
    core.run();
    // Two accesses per predicted call/return pair, ~100 iterations.
    EXPECT_GT(cgp.cghc().accesses(), 100u);
    EXPECT_GT(cgp.cghc().hits(), 50u);
}

TEST(Core, StatsGroupExposesCounters)
{
    Machine m;
    m.record(60);
    const Core &core = m.run();
    // A cold I-cache stalls fetch; neither stall nor idle cycles can
    // exceed the run's length.
    EXPECT_GT(core.fetchIcacheStallCycles(), 0u);
    EXPECT_LE(core.fetchIcacheStallCycles(), core.cycles());
    EXPECT_LE(core.idleCycles(), core.cycles());
}

} // namespace
} // namespace cgp
