/**
 * @file
 * Tests for the out-of-order core: throughput bounds, in-order
 * commit, I-cache stall behaviour, perfect-I$ mode, branch-mispredict
 * penalties, the prefetcher hook points, and the idle-cycle skip
 * (run() against cycle-by-cycle stepping, and the watchdog across
 * skipped cycles).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "codegen/layout.hh"
#include "cpu/core.hh"
#include "dprefetch/factory.hh"
#include "harness/simconfig.hh"
#include "harness/workload.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cgp.hh"
#include "prefetch/nextline.hh"
#include "sample/checkpoint.hh"
#include "trace/expand.hh"
#include "trace/recorder.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/watchdog.hh"

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

TEST(Core, RejectsZeroWidthsAndQueues)
{
    // With any of these at 0 a stage starves and the core steps (or
    // skips) forever without committing: the constructor refuses.
    Machine m;
    m.record(10);
    LayoutBuilder builder(m.reg);
    m.image = builder.buildOriginal();
    InstructionExpander stream(m.reg, m.image, m.trace);
    MemoryHierarchy mem;
    unsigned CoreConfig::*const fields[] = {
        &CoreConfig::fetchWidth,     &CoreConfig::dispatchWidth,
        &CoreConfig::issueWidth,     &CoreConfig::commitWidth,
        &CoreConfig::fetchQueueSize, &CoreConfig::lsqSize,
        &CoreConfig::rsSize,         &CoreConfig::intAlus,
        &CoreConfig::multipliers,    &CoreConfig::memPorts};
    for (unsigned CoreConfig::*field : fields) {
        CoreConfig cfg;
        cfg.*field = 0;
        detail::setThrowOnError(true);
        EXPECT_THROW(Core(stream, mem, nullptr, cfg), std::logic_error);
        detail::setThrowOnError(false);
    }
    // 1 is the smallest legal value of each.
    CoreConfig ones;
    for (unsigned CoreConfig::*field : fields)
        ones.*field = 1;
    Core core(stream, mem, nullptr, ones);
    core.run();
    EXPECT_EQ(core.committedInstrs(), stream.emittedInstrs());
    EXPECT_TRUE(core.drained());
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

/** How a CoreSkip test drives the core. */
enum class Drive
{
    Run,  ///< Core::run(): steps and skips idle cycles
    Step  ///< stepCycle() on every cycle
};

void
drive(Core &core, MemoryHierarchy &mem, Drive how)
{
    if (how == Drive::Run) {
        core.run();
        return;
    }
    core.beginRun();
    while (!core.finished())
        core.stepCycle();
    mem.finalize();
}

/** Everything a skip could disturb, in comparable form. */
struct SkipProbe
{
    Cycle cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t idle = 0;
    std::uint64_t fetchStall = 0;
    std::uint64_t l1iAccesses = 0, l1iMisses = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t portRequests = 0, portWait = 0;
    std::string l1iState, l1dState, l2State;
};

enum class Engine
{
    None,
    Nl4,
    Cgp4
};

/** The smoke-a program of the micro-benchmarks (~100K instructions)
 *  on the O5 layout, driven @p how on a fresh machine. */
SkipProbe
runSmokeA(Drive how, Engine engine, CoreConfig cfg,
          HierarchyConfig hcfg = {})
{
    static const Workload w = [] {
        spec::SpecProgramSpec program;
        program.name = "smoke-a";
        program.functions = 60;
        program.hotFunctions = 30;
        program.workPerCall = 50.0;
        program.trainInstrs = 120'000;
        program.testInstrs = 30'000;
        return WorkloadFactory::buildSpec(program, 1.0);
    }();
    LayoutBuilder builder(*w.registry);
    const CodeImage image = builder.buildOriginal();
    InstructionExpander stream(*w.registry, image, *w.trace);
    MemoryHierarchy mem(hcfg);
    std::unique_ptr<InstrPrefetcher> pf;
    if (engine == Engine::Nl4)
        pf = std::make_unique<NextNLinePrefetcher>(mem.l1i(), 4);
    else if (engine == Engine::Cgp4)
        pf = std::make_unique<CgpPrefetcher>(
            mem.l1i(), CghcConfig::twoLevel2K32K(), 4);
    // A run takes under 200K cycles: the budget turns a livelock
    // into a TimeoutError instead of a hang.
    cfg.maxCycles = 2'000'000;
    Core core(stream, mem, pf.get(), cfg);
    drive(core, mem, how);

    SkipProbe p;
    p.cycles = core.cycles();
    p.committed = core.committedInstrs();
    p.idle = core.idleCycles();
    p.fetchStall = core.fetchIcacheStallCycles();
    p.l1iAccesses = mem.l1i().demandAccesses();
    p.l1iMisses = mem.l1i().demandMisses();
    p.l1dAccesses = mem.l1d().demandAccesses();
    p.l1dMisses = mem.l1d().demandMisses();
    p.portRequests = mem.port().requests();
    p.portWait = mem.port().waitCycles();
    p.l1iState = mem.l1i().saveState().dump();
    p.l1dState = mem.l1d().saveState().dump();
    p.l2State = mem.l2().saveState().dump();
    return p;
}

TEST(CoreSkip, RunMatchesCycleByCycle)
{
    struct Variant
    {
        const char *name;
        Engine engine;
        CoreConfig cfg;
        HierarchyConfig hcfg;
    };
    CoreConfig perfect;
    perfect.perfectICache = true;
    CoreConfig tiny;
    tiny.fetchQueueSize = 1;
    tiny.rsSize = 2;
    tiny.lsqSize = 1;
    HierarchyConfig arbitrated;
    arbitrated.arbiter.enabled = true;
    const Variant variants[] = {
        {"CGP_4", Engine::Cgp4, {}, {}},
        {"NL_4", Engine::Nl4, {}, {}},
        {"no prefetcher", Engine::None, {}, {}},
        {"perfect I-cache", Engine::Cgp4, perfect, {}},
        {"tiny queues", Engine::Cgp4, tiny, {}},
        {"CGP_4 arbitrated", Engine::Cgp4, {}, arbitrated},
    };
    for (const Variant &v : variants) {
        SCOPED_TRACE(v.name);
        const SkipProbe run =
            runSmokeA(Drive::Run, v.engine, v.cfg, v.hcfg);
        const SkipProbe step =
            runSmokeA(Drive::Step, v.engine, v.cfg, v.hcfg);
        EXPECT_EQ(run.cycles, step.cycles);
        EXPECT_EQ(run.committed, step.committed);
        EXPECT_EQ(run.idle, step.idle);
        EXPECT_EQ(run.fetchStall, step.fetchStall);
        EXPECT_EQ(run.l1iAccesses, step.l1iAccesses);
        EXPECT_EQ(run.l1iMisses, step.l1iMisses);
        EXPECT_EQ(run.l1dAccesses, step.l1dAccesses);
        EXPECT_EQ(run.l1dMisses, step.l1dMisses);
        EXPECT_EQ(run.portRequests, step.portRequests);
        EXPECT_EQ(run.portWait, step.portWait);
        EXPECT_EQ(run.l1iState, step.l1iState);
        EXPECT_EQ(run.l1dState, step.l1dState);
        EXPECT_EQ(run.l2State, step.l2State);
        EXPECT_GT(step.committed, 50'000u);
    }
}

/** A machine whose every L2 access takes over 10K cycles, so one
 *  miss is a stall that crosses the watchdog stride. */
struct SlowMachine
{
    explicit SlowMachine(CoreConfig cfg = {})
    {
        m.record(20);
        image = LayoutBuilder(m.reg).buildOriginal();
        expander =
            std::make_unique<InstructionExpander>(m.reg, image, m.trace);
        HierarchyConfig hcfg;
        hcfg.l2.hitLatency = 10'000;
        mem = std::make_unique<MemoryHierarchy>(hcfg);
        core = std::make_unique<Core>(*expander, *mem, nullptr, cfg);
    }

    Machine m;
    CodeImage image;
    std::unique_ptr<InstructionExpander> expander;
    std::unique_ptr<MemoryHierarchy> mem;
    std::unique_ptr<Core> core;
};

TEST(CoreSkip, CycleBudgetTripsAtTheSameCycle)
{
    // 5000 falls inside the first I-miss, 25000 inside a later one.
    for (const std::uint64_t budget : {5'000u, 25'000u}) {
        SCOPED_TRACE(budget);
        CoreConfig cfg;
        cfg.maxCycles = budget;
        Cycle at[2] = {};
        for (const Drive how : {Drive::Run, Drive::Step}) {
            SlowMachine s(cfg);
            EXPECT_THROW(drive(*s.core, *s.mem, how), TimeoutError);
            at[how == Drive::Run ? 0 : 1] = s.core->cycles();
        }
        EXPECT_EQ(at[0], budget);
        EXPECT_EQ(at[0], at[1]);
    }
}

TEST(CoreSkip, WallBudgetIsSeenAcrossSkips)
{
    // The budget runs out during the first I-miss: the skip over the
    // rest of the stall crosses the stride, so skipIdle itself throws.
    CoreConfig cfg;
    cfg.maxWallSeconds = 0.5;
    SlowMachine s(cfg);
    s.core->beginRun();
    s.core->stepCycle(); // the miss
    s.core->stepCycle(); // a dead cycle
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    EXPECT_THROW(s.core->skipIdle(), TimeoutError);
    EXPECT_LT(s.core->cycles(), 4096u);
}

/** Counts every hook and forwards it to a CGP_4 engine. */
class CountingPrefetcher final : public InstrPrefetcher
{
  public:
    explicit CountingPrefetcher(Cache &l1i)
        : cgp_(l1i, CghcConfig::twoLevel2K32K(), 4)
    {
    }

    void
    onFetchLine(Addr line_addr, Cycle now) override
    {
        ++fetchLines;
        cgp_.onFetchLine(line_addr, now);
    }

    void
    onCall(Addr callee_start, Addr caller_start, Cycle now) override
    {
        ++calls;
        cgp_.onCall(callee_start, caller_start, now);
    }

    void
    onReturn(Addr returnee_start, Addr returning_start,
             Cycle now) override
    {
        ++returns;
        cgp_.onReturn(returnee_start, returning_start, now);
    }

    void setWarming(bool warming) override { cgp_.setWarming(warming); }
    const char *name() const override { return "counting"; }

    std::uint64_t fetchLines = 0;
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;

  private:
    CgpPrefetcher cgp_;
};

TEST(CoreWarm, FastForwardTrainsWithoutIssuing)
{
    Machine m;
    m.record(200);
    m.image = LayoutBuilder(m.reg).buildOriginal();

    // The detailed run predicts every control instruction once, as
    // warming does: each return reaches onReturn, and each call whose
    // target the BTB predicts reaches onCall.
    InstructionExpander detailed_stream(m.reg, m.image, m.trace);
    MemoryHierarchy detailed_mem;
    CountingPrefetcher detailed(detailed_mem.l1i());
    Core detailed_core(detailed_stream, detailed_mem, &detailed,
                       CoreConfig{});
    detailed_core.run();
    ASSERT_GT(detailed.fetchLines, 0u);

    std::uint64_t returns = 0;
    {
        InstructionExpander ex(m.reg, m.image, m.trace);
        DynInst inst;
        while (ex.next(inst))
            returns += inst.kind == InstKind::Return ? 1 : 0;
    }

    InstructionExpander stream(m.reg, m.image, m.trace);
    MemoryHierarchy mem;
    CountingPrefetcher pf(mem.l1i());
    Core core(stream, mem, &pf, CoreConfig{});
    const std::uint64_t warmed = core.fastForward(~0ull);
    EXPECT_EQ(warmed, detailed_core.committedInstrs());

    // Warming trains through the call and return hooks and never
    // issues: no fetch-line hook, no L1-I prefetch, none squashed.
    EXPECT_EQ(pf.fetchLines, 0u);
    EXPECT_EQ(pf.returns, returns);
    EXPECT_EQ(pf.returns, detailed.returns);
    EXPECT_EQ(pf.calls, detailed.calls);
    EXPECT_GT(pf.calls, 0u);
    EXPECT_LE(pf.calls, stream.emittedCalls());
    for (const AccessSource src :
         {AccessSource::PrefetchNL, AccessSource::PrefetchCGHC})
        EXPECT_EQ(mem.l1i().prefetchesIssued(src), 0u);
    EXPECT_EQ(mem.l1i().squashedPrefetches(), 0u);
}

/** @p w on @p config's image, its I- and D-engines and a core, with
 *  every part a warm-state checkpoint saves. */
struct WarmableMachine
{
    WarmableMachine(const Workload &w, const SimConfig &config,
                    const CodeImage &image)
        : stream(*w.registry, image, *w.trace), mem(config.mem),
          cgp(mem.l1i(), config.cghc, config.depth),
          dengine(makeDataPrefetcher(mem.l1d(), config.dprefetch)),
          core(stream, mem, &cgp, config.core, dengine.get())
    {
        parts.l1i = &mem.l1i();
        parts.l1d = &mem.l1d();
        parts.l2 = &mem.l2();
        parts.branch = &core.branchUnit();
        parts.core = &core;
        cgp.addCheckpointParts(parts);
        dengine->addCheckpointParts(parts);
    }

    InstructionExpander stream;
    MemoryHierarchy mem;
    CgpPrefetcher cgp;
    std::unique_ptr<DataPrefetcher> dengine;
    Core core;
    sample::CheckpointParts parts;
};

TEST(CoreWarm, RandomFastForwardChunksLeaveOneWarmState)
{
    // Warming a prefix in one call or in any split of it must leave
    // the same caches, branch unit, CGHC and D-engine tables.
    const DbWorkloadSet set = WorkloadFactory::buildDbSet(0.03);
    const Workload *w = nullptr;
    for (const Workload &candidate : set.workloads) {
        if (candidate.name == "wisc+tpch")
            w = &candidate;
    }
    ASSERT_NE(w, nullptr);
    const SimConfig config =
        SimConfig::withIPlusD(DataPrefetchKind::Combined, true);
    const CodeImage image =
        LayoutBuilder(*w->registry).build(config.layout, *w->omProfile);
    constexpr std::uint64_t prefix = 300'000;
    const std::string label = config.describe();

    WarmableMachine whole(*w, config, image);
    ASSERT_EQ(whole.core.fastForward(prefix), prefix);
    const std::string want =
        sample::buildCheckpoint(whole.parts, w->name, label, prefix,
                                prefix)
            .dump();

    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        SCOPED_TRACE(seed);
        WarmableMachine chunked(*w, config, image);
        Rng rng(seed);
        std::uint64_t done = 0, calls = 0;
        while (done < prefix) {
            std::uint64_t chunk;
            switch (rng.nextBelow(4)) {
              case 0: chunk = rng.nextBelow(2); break;
              case 1: chunk = 2 + rng.nextBelow(15); break;
              case 2: chunk = rng.nextBelow(400); break;
              default: chunk = rng.nextBelow(20'000); break;
            }
            chunk = std::min(chunk, prefix - done);
            ASSERT_EQ(chunked.core.fastForward(chunk), chunk);
            done += chunk;
            ++calls;
        }
        EXPECT_GT(calls, 100u);
        EXPECT_EQ(chunked.core.warmedInstrs(),
                  whole.core.warmedInstrs());
        EXPECT_EQ(sample::buildCheckpoint(chunked.parts, w->name, label,
                                          prefix, prefix)
                      .dump(),
                  want);
    }
}

} // namespace
} // namespace cgp
