/**
 * @file
 * Microbenchmarks (google-benchmark) of the simulator's hot
 * components: CGHC accesses, cache lookups, branch prediction, trace
 * expansion throughput, the DB workload set's construction, the OM
 * profiling replay, the cycle-level core and its functional warm
 * path over a whole trace, the Combined data-prefetch engine on a DB
 * data stream, and cutting and restoring a warm-state checkpoint.
 * These bound the simulator's own speed, not the modeled machine's.
 */

#include <benchmark/benchmark.h>

#include "branch/predictor.hh"
#include "codegen/layout.hh"
#include "codegen/registry.hh"
#include "cpu/core.hh"
#include "dprefetch/factory.hh"
#include "exp/integrity.hh"
#include "harness/simconfig.hh"
#include "harness/workload.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cghc.hh"
#include "prefetch/cgp.hh"
#include "sample/checkpoint.hh"
#include "trace/expand.hh"
#include "trace/recorder.hh"
#include "util/rng.hh"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/btree.hh"
#include "db/heapfile.hh"

namespace
{

void
BM_CghcCallAccess(benchmark::State &state)
{
    using namespace cgp;
    Cghc cghc(CghcConfig::twoLevel2K32K());
    Rng rng(42);
    std::vector<Addr> funcs;
    for (int i = 0; i < 256; ++i)
        funcs.push_back(0x400000 + static_cast<Addr>(i) * 352);
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr callee = funcs[i % funcs.size()];
        const Addr caller = funcs[(i * 7 + 3) % funcs.size()];
        benchmark::DoNotOptimize(cghc.callPrefetchAccess(callee));
        cghc.callUpdateAccess(caller, callee);
        ++i;
    }
}
BENCHMARK(BM_CghcCallAccess);

void
BM_CacheAccess(benchmark::State &state)
{
    using namespace cgp;
    CacheConfig cfg{"l1i", 32 * 1024, 2, 32, 1};
    Cache cache(cfg, nullptr, nullptr);
    Rng rng(7);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr addr = 0x400000 + (rng.next() & 0xffff);
        benchmark::DoNotOptimize(
            cache.access(addr, ++now, AccessSource::DemandFetch,
                         false));
        cache.tick(now);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredict(benchmark::State &state)
{
    using namespace cgp;
    BranchUnit bu(BranchPredictorConfig{});
    Rng rng(3);
    for (auto _ : state) {
        const Addr pc = 0x400000 + ((rng.next() & 0xff) << 2);
        const bool taken = rng.nextBool(0.6);
        benchmark::DoNotOptimize(
            bu.predictConditional(pc, taken, pc + 64));
    }
}
BENCHMARK(BM_BranchPredict);

/** The expansion benchmarks' program: two functions, a call per
 *  iteration, work bursts and decision-site branches. */
struct ExpansionProgram
{
    cgp::FunctionRegistry reg;
    cgp::TraceBuffer trace;
    cgp::CodeImage image;

    ExpansionProgram()
    {
        using namespace cgp;
        const FunctionId a = reg.declare("a", FunctionTraits::medium());
        const FunctionId b = reg.declare("b", FunctionTraits::small());
        TraceRecorder rec(trace);
        rec.call(a);
        for (int i = 0; i < 1000; ++i) {
            rec.work(30);
            rec.call(b);
            rec.work(20);
            rec.ret();
            rec.branch(i % 3 == 0);
        }
        rec.ret();
        image = LayoutBuilder(reg).buildOriginal();
    }
};

void
BM_TraceExpansion(benchmark::State &state)
{
    using namespace cgp;
    const ExpansionProgram p;
    for (auto _ : state) {
        InstructionExpander ex(p.reg, p.image, p.trace);
        DynInst inst;
        std::uint64_t n = 0;
        while (ex.next(inst))
            ++n;
        benchmark::DoNotOptimize(n);
        state.SetItemsProcessed(
            state.items_processed() + static_cast<std::int64_t>(n));
    }
}
BENCHMARK(BM_TraceExpansion);

/** The same program through the functional-warming path, which
 *  hands plain work out a block at a time, split into runs and stack
 *  references as the core's hooks split it. */
void
BM_WarmExpansion(benchmark::State &state)
{
    using namespace cgp;
    struct Sink final : WarmSink
    {
        Addr last = 0;
        void
        work(Addr pc, std::uint64_t done, std::uint64_t n,
             Addr frame) override
        {
            splitWork(
                pc, done, n, frame,
                [this](Addr first, std::uint64_t count) {
                    last = first + count;
                },
                [this](Addr ref_pc, Addr, bool) { last = ref_pc; });
        }
        void inst(const DynInst &inst) override { last = inst.pc; }
    };
    const ExpansionProgram p;
    for (auto _ : state) {
        InstructionExpander ex(p.reg, p.image, p.trace);
        Sink sink;
        const std::uint64_t n = ex.warm(~0ull, sink);
        benchmark::DoNotOptimize(sink.last);
        state.SetItemsProcessed(
            state.items_processed() + static_cast<std::int64_t>(n));
    }
}
BENCHMARK(BM_WarmExpansion);

/** The smoke-a campaign workload: a ~100K-instruction synthetic
 *  program (built once). */
const cgp::Workload &
smokeA()
{
    using namespace cgp;
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
    return w;
}

/**
 * smoke-a on the O5 layout with CGP_4, the whole trace per
 * iteration.  With @p skip the core runs through Core::run(), which
 * jumps over idle cycles; without it every cycle is stepped, so the
 * BM_CoreRun / BM_CoreStep pair shows the skip's share.
 */
void
coreBench(benchmark::State &state, bool skip)
{
    using namespace cgp;
    const Workload &w = smokeA();
    LayoutBuilder builder(*w.registry);
    const CodeImage image = builder.buildOriginal();

    for (auto _ : state) {
        InstructionExpander stream(*w.registry, image, *w.trace);
        MemoryHierarchy mem;
        CgpPrefetcher cgp(mem.l1i(), CghcConfig::twoLevel2K32K(), 4);
        Core core(stream, mem, &cgp, CoreConfig{});
        if (skip) {
            core.run();
        } else {
            core.beginRun();
            while (!core.finished())
                core.stepCycle();
            mem.finalize();
        }
        benchmark::DoNotOptimize(core.cycles());
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(core.committedInstrs()));
    }
}

void
BM_CoreRun(benchmark::State &state)
{
    coreBench(state, true);
}
BENCHMARK(BM_CoreRun);

void
BM_CoreStep(benchmark::State &state)
{
    coreBench(state, false);
}
BENCHMARK(BM_CoreStep);

/**
 * The OM profiling replay (profileOf in harness/workload.cc): smoke-a
 * drained through an O5 expander with a profile attached, so every
 * call, entry and block crossing lands in the profile's counters.
 */
void
BM_ProfileReplay(benchmark::State &state)
{
    using namespace cgp;
    const Workload &w = smokeA();
    const CodeImage image = LayoutBuilder(*w.registry).buildOriginal();
    for (auto _ : state) {
        InstructionExpander ex(*w.registry, image, *w.trace);
        ExecutionProfile profile;
        ex.setProfile(&profile);
        const std::uint64_t n = ex.advance(~0ull);
        benchmark::DoNotOptimize(profile.totalCalls());
        state.SetItemsProcessed(
            state.items_processed() + static_cast<std::int64_t>(n));
    }
}
BENCHMARK(BM_ProfileReplay);

/** Checkpoint replay (warmPrefix in sample/controller.cc): smoke-a
 *  skipped through an O5 expander with no profile attached. */
void
BM_Advance(benchmark::State &state)
{
    using namespace cgp;
    const Workload &w = smokeA();
    const CodeImage image = LayoutBuilder(*w.registry).buildOriginal();
    for (auto _ : state) {
        InstructionExpander ex(*w.registry, image, *w.trace);
        const std::uint64_t n = ex.advance(~0ull);
        benchmark::DoNotOptimize(ex.emittedLoads());
        state.SetItemsProcessed(
            state.items_processed() + static_cast<std::int64_t>(n));
    }
}
BENCHMARK(BM_Advance);

void
BM_BTreeInsert(benchmark::State &state)
{
    using namespace cgp;
    using namespace cgp::db;
    FunctionRegistry reg;
    TraceBuffer buf;
    DbContext ctx(reg);
    ctx.retarget(buf);
    Volume vol(ctx);
    BufferPool pool(ctx, vol, 1024);
    LockManager locks(ctx);
    BTree tree(ctx, pool, vol, locks);
    std::int32_t k = 0;
    for (auto _ : state) {
        tree.insert(1, k, Rid{static_cast<PageId>(k), 0});
        ++k;
        if (buf.size() > 4'000'000) {
            state.PauseTiming();
            buf.clear();
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_BTreeInsert);

void
BM_HeapFileScan(benchmark::State &state)
{
    using namespace cgp;
    using namespace cgp::db;
    FunctionRegistry reg;
    TraceBuffer buf;
    DbContext ctx(reg);
    ctx.retarget(buf);
    Volume vol(ctx);
    BufferPool pool(ctx, vol, 1024);
    LockManager locks(ctx);
    WriteAheadLog log(ctx);
    Schema schema({{"k", ColumnType::Int32, 4},
                   {"pad", ColumnType::Char, 60}});
    HeapFile file(ctx, pool, vol, locks, log, &schema);
    for (int i = 0; i < 2000; ++i) {
        Tuple t(&schema);
        t.setInt(0, i);
        file.createRec(1, t);
    }
    buf.clear();
    for (auto _ : state) {
        HeapFile::Scan scan(file, 1);
        Tuple t;
        std::uint64_t rows = 0;
        while (scan.next(t))
            ++rows;
        scan.close();
        benchmark::DoNotOptimize(rows);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(rows));
        buf.clear();
    }
}
BENCHMARK(BM_HeapFileScan);

/** The DB workload set at perfbench's scale (built once). */
const cgp::DbWorkloadSet &
dbSet()
{
    static const cgp::DbWorkloadSet set =
        cgp::WorkloadFactory::buildDbSet(0.03);
    return set;
}

/** The DB workload set's workload @p name. */
const cgp::Workload &
dbWorkload(const std::string &name)
{
    for (const cgp::Workload &candidate : dbSet().workloads) {
        if (candidate.name == name)
            return candidate;
    }
    throw std::runtime_error("no " + name + " workload");
}

/**
 * The DB workload set's construction at perfbench's scale: loading
 * the databases, recording every query, merging the four traces and
 * the OM profiling replays.
 */
void
BM_BuildDbSet(benchmark::State &state)
{
    for (auto _ : state) {
        const cgp::DbWorkloadSet set =
            cgp::WorkloadFactory::buildDbSet(0.03);
        benchmark::DoNotOptimize(set.workloads.back().trace->size());
    }
}
BENCHMARK(BM_BuildDbSet)->Unit(benchmark::kMillisecond);

/** The OM layout pass over the DB binary and its merged profile. */
void
BM_LayoutPettisHansen(benchmark::State &state)
{
    using namespace cgp;
    const DbWorkloadSet &set = dbSet();
    const LayoutBuilder builder(*set.registry);
    for (auto _ : state) {
        const CodeImage image = builder.buildPettisHansen(*set.omProfile);
        benchmark::DoNotOptimize(image.textLimit());
    }
}
BENCHMARK(BM_LayoutPettisHansen);

/**
 * wisc-large-1 on O5+OM with CGP_4 through Core::run(), the whole
 * trace per iteration: the core on db-fig6's instruction mix, where
 * BM_CoreRun runs a synthetic program.
 */
void
BM_CoreRunDb(benchmark::State &state)
{
    using namespace cgp;
    const Workload &w = dbWorkload("wisc-large-1");
    const SimConfig config =
        SimConfig::withCgp(LayoutKind::PettisHansen, 4);
    const CodeImage image =
        LayoutBuilder(*w.registry).build(config.layout, *w.omProfile);

    for (auto _ : state) {
        InstructionExpander stream(*w.registry, image, *w.trace);
        MemoryHierarchy mem(config.mem);
        CgpPrefetcher cgp(mem.l1i(), config.cghc, config.depth);
        Core core(stream, mem, &cgp, config.core);
        core.run();
        benchmark::DoNotOptimize(core.cycles());
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(core.committedInstrs()));
    }
}
BENCHMARK(BM_CoreRunDb)->Unit(benchmark::kMillisecond);

/**
 * wisc-prof on O5+OM+CGP_4, the machine the sampled runs checkpoint,
 * after a functional warm-up of @p warmup instructions.
 */
struct WiscProfMachine
{
    explicit WiscProfMachine(std::uint64_t warmupInstrs)
        : w(dbWorkload("wisc-prof")),
          config(cgp::SimConfig::withCgp(cgp::LayoutKind::PettisHansen,
                                         4)),
          image(cgp::LayoutBuilder(*w.registry)
                    .build(config.layout, *w.omProfile)),
          stream(*w.registry, image, *w.trace), mem(config.mem),
          cgp(mem.l1i(), config.cghc, config.depth),
          core(stream, mem, &cgp, config.core), warmup(warmupInstrs),
          consumed(warmup > 0 ? core.fastForward(warmup) : 0)
    {
        parts.l1i = &mem.l1i();
        parts.l1d = &mem.l1d();
        parts.l2 = &mem.l2();
        parts.branch = &core.branchUnit();
        parts.core = &core;
        cgp.addCheckpointParts(parts);
    }

    std::string
    sealedCheckpoint() const
    {
        return cgp::exp::sealedJsonText(cgp::sample::buildCheckpoint(
            parts, w.name, config.describe(), warmup, consumed));
    }

    const cgp::Workload &w;
    cgp::SimConfig config;
    cgp::CodeImage image;
    cgp::InstructionExpander stream;
    cgp::MemoryHierarchy mem;
    cgp::CgpPrefetcher cgp;
    cgp::Core core;
    std::uint64_t warmup;
    std::uint64_t consumed;
    cgp::sample::CheckpointParts parts;
};

/**
 * Cutting a warm-state checkpoint: buildCheckpoint plus
 * sealedJsonText of wisc-prof on O5+OM+CGP_4 after a 100K-instruction
 * functional warm-up, the prefix the sampled runs checkpoint.
 */
void
BM_CheckpointSeal(benchmark::State &state)
{
    const WiscProfMachine m(100'000);
    for (auto _ : state) {
        const std::string text = m.sealedCheckpoint();
        benchmark::DoNotOptimize(text.data());
        state.SetBytesProcessed(state.bytes_processed() +
                                static_cast<std::int64_t>(text.size()));
    }
}
BENCHMARK(BM_CheckpointSeal);

/**
 * Restoring the BM_CheckpointSeal checkpoint the way the sampler's
 * store does, short of the file read: parse, seal check,
 * checkCheckpoint and applyCheckpoint into an unwarmed machine.
 */
void
BM_CheckpointRestore(benchmark::State &state)
{
    using namespace cgp;
    const std::string text = WiscProfMachine(100'000).sealedCheckpoint();
    WiscProfMachine fresh(0);
    const std::string label = fresh.config.describe();
    for (auto _ : state) {
        const Json doc = Json::parse(text);
        if (!exp::verifySealedJson(doc))
            state.SkipWithError("checkpoint seal mismatch");
        benchmark::DoNotOptimize(sample::checkCheckpoint(
            doc, fresh.w.name, label, 100'000));
        sample::applyCheckpoint(doc, fresh.parts);
        state.SetBytesProcessed(state.bytes_processed() +
                                static_cast<std::int64_t>(text.size()));
    }
}
BENCHMARK(BM_CheckpointRestore);

/**
 * The sampler's warm path: Core::fastForward with functional warming
 * over the whole smoke-a trace on O5 with CGP_4 (caches, branch unit
 * and CGHC train; nothing issues).
 */
void
BM_CoreWarm(benchmark::State &state)
{
    using namespace cgp;
    const Workload &w = smokeA();
    const CodeImage image = LayoutBuilder(*w.registry).buildOriginal();
    for (auto _ : state) {
        InstructionExpander stream(*w.registry, image, *w.trace);
        MemoryHierarchy mem;
        CgpPrefetcher cgp(mem.l1i(), CghcConfig::twoLevel2K32K(), 4);
        Core core(stream, mem, &cgp, CoreConfig{});
        const std::uint64_t n = core.fastForward(~0ull);
        benchmark::DoNotOptimize(n);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(n));
    }
}
BENCHMARK(BM_CoreWarm);

/**
 * The same warm path on DB traffic: wisc+tpch, the mix sampled-tpch
 * warms, on O5+OM with CGP_4, the whole trace per iteration.
 */
void
BM_CoreWarmDb(benchmark::State &state)
{
    using namespace cgp;
    const Workload &w = dbWorkload("wisc+tpch");
    const SimConfig config =
        SimConfig::withCgp(LayoutKind::PettisHansen, 4);
    const CodeImage image =
        LayoutBuilder(*w.registry).build(config.layout, *w.omProfile);
    for (auto _ : state) {
        InstructionExpander stream(*w.registry, image, *w.trace);
        MemoryHierarchy mem(config.mem);
        CgpPrefetcher cgp(mem.l1i(), config.cghc, config.depth);
        Core core(stream, mem, &cgp, config.core);
        const std::uint64_t n = core.fastForward(~0ull);
        benchmark::DoNotOptimize(n);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(n));
    }
}
BENCHMARK(BM_CoreWarmDb)->Unit(benchmark::kMillisecond);

/** One event of the D-engine's input stream. */
struct DataEvent
{
    cgp::Addr pc;
    cgp::Addr addr;
    bool hint;       ///< a semantic hint, not an access
    bool write;      ///< a store (accesses)
    bool miss;       ///< missed a warmed L1-D (accesses)
    std::uint8_t kind; ///< the DataHintKind (hints)
};

/**
 * wisc-prof's loads, stores and hints on O5+OM, in stream order, with
 * each access's L1-D outcome from a functional pass over a Table 1
 * hierarchy (built once).
 */
const std::vector<DataEvent> &
wiscProfDataStream()
{
    using namespace cgp;
    static const std::vector<DataEvent> events = [] {
        const Workload &w = dbWorkload("wisc-prof");
        const CodeImage image = LayoutBuilder(*w.registry)
                                    .build(LayoutKind::PettisHansen,
                                           *w.omProfile);
        InstructionExpander stream(*w.registry, image, *w.trace);
        MemoryHierarchy mem;
        std::vector<DataEvent> out;
        DynInst inst;
        while (stream.next(inst)) {
            if (inst.hintAddr != invalidAddr)
                out.push_back({inst.pc, inst.hintAddr, true, false, false,
                               inst.hintKind});
            if (inst.kind == InstKind::Load ||
                inst.kind == InstKind::Store) {
                const bool write = inst.kind == InstKind::Store;
                out.push_back({inst.pc, inst.memAddr, false, write,
                               mem.l1d().warmAccess(inst.memAddr, write),
                               0});
            }
        }
        return out;
    }();
    return events;
}

/**
 * The Combined D-engine (stride, correlation and semantic) on
 * wisc-prof's data stream: onAccess per load and store, onMiss per
 * miss and onHint per hint, one event per cycle, with the engine's
 * prefetches issued into a fresh Table 1 L1-D each iteration.
 */
void
BM_DataPrefetchCombined(benchmark::State &state)
{
    using namespace cgp;
    const std::vector<DataEvent> &events = wiscProfDataStream();
    const SimConfig config =
        SimConfig::withIPlusD(DataPrefetchKind::Combined, false);
    for (auto _ : state) {
        MemoryHierarchy mem(config.mem);
        const std::unique_ptr<DataPrefetcher> engine =
            makeDataPrefetcher(mem.l1d(), config.dprefetch);
        Cycle now = 0;
        for (const DataEvent &e : events) {
            mem.tick(++now);
            if (e.hint) {
                engine->onHint(static_cast<DataHintKind>(e.kind), e.addr,
                               now);
                continue;
            }
            engine->onAccess(e.pc, e.addr, e.write, e.miss, now);
            if (e.miss)
                engine->onMiss(e.pc, e.addr, now);
        }
        benchmark::DoNotOptimize(mem.port().requests());
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(events.size()));
    }
}
BENCHMARK(BM_DataPrefetchCombined)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
