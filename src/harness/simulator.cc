#include "harness/simulator.hh"

#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "dprefetch/factory.hh"
#include "dprefetch/failsoft.hh"
#include "mem/hierarchy.hh"
#include "mem/pfarbiter.hh"
#include "prefetch/cgp.hh"
#include "prefetch/failsoft.hh"
#include "prefetch/nextline.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/software_cgp.hh"
#include "server/server.hh"
#include "trace/expand.hh"
#include "util/logging.hh"

namespace cgp
{

namespace
{

/**
 * One core's prefetch engines plus the observation pointers the
 * result collection needs.  The owning pointers move into the core
 * wiring; the raw pointers stay valid for the life of the engines.
 */
struct EngineSet
{
    std::unique_ptr<InstrPrefetcher> iengine;
    std::unique_ptr<DataPrefetcher> dengine;
    FailSoftPrefetcher *failsoft = nullptr;
    FailSoftDataPrefetcher *dfailsoft = nullptr;
    const Cghc *cghc = nullptr;
    bool ctorFailed = false;
    std::string ctorReason;
};

/**
 * Build the configured I- and D-side engines against @p mem's L1s.
 * Prefetching is an optimisation: a prefetcher that faults — at
 * construction or at any hook mid-run — must not take down the
 * simulation.  Construction failures fall back to no-prefetch here;
 * mid-run faults are absorbed by the FailSoft wrappers.
 */
EngineSet
buildEngines(MemoryHierarchy &mem, const SimConfig &config,
             const FunctionRegistry &registry, const CodeImage &image,
             const ExecutionProfile &profile)
{
    EngineSet set;

    std::unique_ptr<InstrPrefetcher> inner;
    try {
        switch (config.prefetch) {
          case PrefetchKind::None:
            break;
          case PrefetchKind::NextNLine:
            inner = std::make_unique<NextNLinePrefetcher>(
                mem.l1i(), config.depth);
            break;
          case PrefetchKind::RunAheadNL:
            inner = std::make_unique<RunAheadNLPrefetcher>(
                mem.l1i(), config.depth, config.runaheadSkip);
            break;
          case PrefetchKind::Cgp: {
            auto cgp = std::make_unique<CgpPrefetcher>(
                mem.l1i(), config.cghc, config.depth);
            set.cghc = &cgp->cghc();
            inner = std::move(cgp);
            break;
          }
          case PrefetchKind::SoftwareCgp:
            // The "compiler" consumes the same profile feedback OM
            // does.
            inner = std::make_unique<SoftwareCgpPrefetcher>(
                mem.l1i(), registry, image, profile, config.depth);
            break;
        }
    } catch (const std::exception &e) {
        set.ctorFailed = true;
        set.ctorReason = e.what();
        set.cghc = nullptr;
        inner.reset();
        cgp_error("prefetcher construction failed (", set.ctorReason,
                  "); running without prefetch");
    }

    if (inner != nullptr) {
        auto fs =
            std::make_unique<FailSoftPrefetcher>(std::move(inner));
        set.failsoft = fs.get();
        set.iengine = std::move(fs);
    }

    // The data-side engine gets the same fail-soft treatment: a
    // construction failure falls back to no data prefetch, a mid-run
    // fault disables it for the rest of the run.
    std::unique_ptr<DataPrefetcher> dinner;
    try {
        dinner = makeDataPrefetcher(mem.l1d(), config.dprefetch);
    } catch (const std::exception &e) {
        if (!set.ctorFailed) {
            set.ctorFailed = true;
            set.ctorReason = e.what();
        }
        dinner.reset();
        cgp_error("data prefetcher construction failed (", e.what(),
                  "); running without data prefetch");
    }
    if (dinner != nullptr) {
        auto fs = std::make_unique<FailSoftDataPrefetcher>(
            std::move(dinner));
        set.dfailsoft = fs.get();
        set.dengine = std::move(fs);
    }
    return set;
}

/**
 * Add one core's counters into the result: committed instructions,
 * branch mispredicts, the L1 and arbiter prefetch classification,
 * CGHC accesses and engine health.  runSimulation calls it once per
 * core, so the scalar SimResult counters are sums across cores.
 */
void
collectCore(SimResult &r, MemoryHierarchy &mem, const Core &core,
            const EngineSet &engines)
{
    r.instrs += core.committedInstrs();
    r.branchMispredicts += core.branchUnit().mispredicts();

    const Cache &l1i = mem.l1i();
    const Cache &l1d = mem.l1d();
    r.icacheAccesses += l1i.demandAccesses();
    r.icacheMisses += l1i.demandMisses();
    r.dcacheAccesses += l1d.demandAccesses();
    r.dcacheMisses += l1d.demandMisses();
    const auto grab = [](PrefetchBreakdown &b, const Cache &c,
                         AccessSource src) {
        b.issued += c.prefetchesIssued(src);
        b.prefHits += c.prefHits(src);
        b.delayedHits += c.delayedHits(src);
        b.useless += c.useless(src);
    };
    grab(r.nl, l1i, AccessSource::PrefetchNL);
    grab(r.cghc, l1i, AccessSource::PrefetchCGHC);
    grab(r.dpf, l1d, AccessSource::DataPrefetch);
    r.squashedPrefetches += l1i.squashedPrefetches();
    r.dSquashedPrefetches += l1d.squashedPrefetches();

    if (const PrefetchArbiter *arb = mem.arbiter()) {
        const auto grabArb = [arb](ArbiterBreakdown &b,
                                   AccessSource src) {
            b.issued += arb->issued(src);
            b.deferred += arb->deferred(src);
            b.dropped += arb->dropped(src);
            b.duplicateMerged += arb->duplicateMerged(src);
        };
        grabArb(r.arbNl, AccessSource::PrefetchNL);
        grabArb(r.arbCghc, AccessSource::PrefetchCGHC);
        grabArb(r.arbDpf, AccessSource::DataPrefetch);
    }

    if (engines.cghc != nullptr) {
        r.cghcAccesses += engines.cghc->accesses();
        r.cghcHits += engines.cghc->hits();
    }

    // The first core to report a fault names the reason.
    if (r.prefetchDegraded)
        return;
    if (engines.ctorFailed) {
        r.prefetchDegraded = true;
        r.degradedReason = engines.ctorReason;
    } else if (engines.failsoft != nullptr &&
               engines.failsoft->degraded()) {
        r.prefetchDegraded = true;
        r.degradedReason = engines.failsoft->reason();
    } else if (engines.dfailsoft != nullptr &&
               engines.dfailsoft->degraded()) {
        r.prefetchDegraded = true;
        r.degradedReason = engines.dfailsoft->reason();
    }
}

} // anonymous namespace

SimResult
runSimulation(const Workload &workload, const SimConfig &config)
{
    cgp_assert(workload.registry != nullptr && workload.trace != nullptr,
               "incomplete workload");

    // 1. Bind the trace to the requested binary layout.
    LayoutBuilder builder(*workload.registry);
    ExecutionProfile empty_profile;
    const ExecutionProfile &profile = workload.omProfile
        ? *workload.omProfile
        : empty_profile;
    const CodeImage image = builder.build(config.layout, profile);

    // 2. Wire the machine.  A disabled server is one core replaying
    // the pre-merged trace; an enabled one takes its shape from
    // config.server.
    server::ServerConfig srv_cfg;
    srv_cfg.singleStream = true;
    if (config.server.enabled)
        srv_cfg = config.server;

    server::ServerWiring wiring;
    wiring.registry = workload.registry.get();
    wiring.image = &image;
    wiring.expand.instrScale =
        config.layout == LayoutKind::PettisHansen
        ? config.omInstrScale
        : 1.0;
    wiring.mem = config.mem;
    wiring.core = config.core;
    wiring.core.perfectICache = config.perfectICache;
    wiring.sample = config.sample;
    wiring.workload = workload.name;
    wiring.configLabel = config.describe();

    if (srv_cfg.singleStream) {
        wiring.singleStream = workload.trace.get();
    } else if (workload.queryLibrary != nullptr &&
               !workload.queryLibrary->empty()) {
        for (const auto &q : *workload.queryLibrary)
            wiring.queries.push_back(&q);
        wiring.switchStub = workload.switchStub.get();
    } else {
        // SPEC proxies have no query structure: the whole trace is a
        // one-query library.
        wiring.queries.push_back(workload.trace.get());
    }

    std::vector<EngineSet> engines(srv_cfg.cores);
    wiring.engines = [&](MemoryHierarchy &mem, unsigned coreId) {
        EngineSet set = buildEngines(mem, config, *workload.registry,
                                     image, profile);
        server::EnginePair pair;
        pair.iengine = std::move(set.iengine);
        pair.dengine = std::move(set.dengine);
        engines[coreId] = std::move(set);
        return pair;
    };

    // 3. Run: the lockstep loop, or the sampling controller on core
    // 0 when the sampling axis is enabled.
    server::DbServer srv(srv_cfg, wiring);
    srv.run();

    // 4. Collect.  The scalar counters sum across cores.
    SimResult r;
    r.workload = workload.name;
    r.config = wiring.configLabel;
    r.cycles = srv.cycles();

    std::uint64_t emitted = 0;
    std::uint64_t calls = 0;
    for (unsigned i = 0; i < srv.numCores(); ++i) {
        collectCore(r, srv.memAt(i), srv.coreAt(i), engines[i]);
        emitted += srv.expanderAt(i).emittedInstrs();
        calls += srv.expanderAt(i).emittedCalls();
    }
    r.l2Misses = srv.sharedL2().cache().demandMisses();
    r.busLines = srv.sharedL2().port().requests();
    r.instrsPerCall = calls == 0
        ? 0.0
        : static_cast<double>(emitted) / static_cast<double>(calls);

    if (config.server.enabled) {
        r.serverEnabled = true;
        r.server = srv.stats();
    }
    if (config.sample.enabled) {
        // Warmed instructions executed (functionally); cycles()
        // already includes the IPC-scaled clock jumps, so the pair
        // remains an end-to-end CPI estimate.
        r.sampledEnabled = true;
        r.sampled = srv.sampledStats();
        r.instrs += r.sampled.warmedInstrs;
    }
    return r;
}

} // namespace cgp
