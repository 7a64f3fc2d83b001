#include "traced.hh"

#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cpu/core.hh"
#include "dprefetch/factory.hh"
#include "dprefetch/failsoft.hh"
#include "exp/checkpoint.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cgp.hh"
#include "prefetch/failsoft.hh"
#include "prefetch/nextline.hh"
#include "sample/controller.hh"
#include "server/server.hh"
#include "trace/expand.hh"
#include "trace/source.hh"
#include "util/json.hh"

namespace perfbench
{

using namespace cgp;

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

void
Tracer::record(std::string name, std::string job, double start,
               double seconds)
{
    spans_.push_back({std::move(name), std::move(job), start, seconds});
}

void
Tracer::recordFolded(std::string name, std::string job, double start,
                     const Tally &tally)
{
    spans_.push_back({std::move(name), std::move(job), start,
                      tally.seconds(), tally.calls, true});
}

double
Tracer::seconds(std::string_view name, std::string_view job) const
{
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name && (job.empty() || s.job == job))
            total += s.seconds;
    }
    return total;
}

std::uint64_t
Tracer::calls(std::string_view name) const
{
    std::uint64_t total = 0;
    for (const Span &s : spans_) {
        if (s.name == name)
            total += s.calls;
    }
    return total;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    Json events = Json::array();
    for (const Span &s : spans_) {
        Json e = Json::object();
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("pid", 1);
        e.set("tid", s.folded ? 2 : 1);
        e.set("ts", s.start * 1e6);
        e.set("dur", s.seconds * 1e6);
        Json args = Json::object();
        args.set("job", s.job);
        args.set("calls", static_cast<std::uint64_t>(s.calls));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << doc.dump() << "\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

namespace
{

/** Times every pull the expander makes. */
class TimedTraceSource final : public TraceSource
{
  public:
    TimedTraceSource(TraceSource &inner, Tally &pulls)
        : inner_(inner), pulls_(pulls)
    {
    }

    Pull
    next(TraceEvent &out) override
    {
        const auto t0 = Clock::now();
        const Pull p = inner_.next(out);
        pulls_.add(Clock::now() - t0);
        return p;
    }

  private:
    TraceSource &inner_;
    Tally &pulls_;
};

/** Times every I-engine hook; clocks warming spans between the
 *  setWarming(true) and setWarming(false) transitions. */
class TimedInstrPrefetcher final : public InstrPrefetcher
{
  public:
    TimedInstrPrefetcher(std::unique_ptr<InstrPrefetcher> inner,
                         Tally &hooks, Tally &warming)
        : inner_(std::move(inner)), hooks_(hooks), warming_(warming)
    {
    }

    void
    onFetchLine(Addr line_addr, Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_->onFetchLine(line_addr, now);
        hooks_.add(Clock::now() - t0);
    }

    void
    onCall(Addr callee_start, Addr caller_start, Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_->onCall(callee_start, caller_start, now);
        hooks_.add(Clock::now() - t0);
    }

    void
    onReturn(Addr returnee_start, Addr returning_start,
             Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_->onReturn(returnee_start, returning_start, now);
        hooks_.add(Clock::now() - t0);
    }

    void
    setWarming(bool warming) override
    {
        inner_->setWarming(warming);
        if (warming) {
            warmStart_ = Clock::now();
        } else if (warmStart_) {
            warming_.add(Clock::now() - *warmStart_);
            warmStart_.reset();
        }
    }

    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<InstrPrefetcher> inner_;
    Tally &hooks_;
    Tally &warming_;
    std::optional<Clock::time_point> warmStart_;
};

/** Times every D-engine hook. */
class TimedDataPrefetcher final : public DataPrefetcher
{
  public:
    TimedDataPrefetcher(std::unique_ptr<DataPrefetcher> inner,
                        Tally &hooks)
        : inner_(std::move(inner)), hooks_(hooks)
    {
    }

    void
    onAccess(Addr pc, Addr addr, bool is_write, bool miss,
             Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_->onAccess(pc, addr, is_write, miss, now);
        hooks_.add(Clock::now() - t0);
    }

    void
    onMiss(Addr pc, Addr addr, Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_->onMiss(pc, addr, now);
        hooks_.add(Clock::now() - t0);
    }

    void
    onHint(DataHintKind kind, Addr addr, Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_->onHint(kind, addr, now);
        hooks_.add(Clock::now() - t0);
    }

    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<DataPrefetcher> inner_;
    Tally &hooks_;
};

/** Per-job tallies shared by every core's decorators. */
struct JobTallies
{
    Tally pulls;
    Tally ihooks;
    Tally dhooks;
    Tally warming;
};

/** One core's engines, wired as the harness wires them (fail-soft
 *  wrapper around the engine) with the timing decorator outermost. */
struct Engines
{
    std::unique_ptr<InstrPrefetcher> iengine;
    std::unique_ptr<DataPrefetcher> dengine;
    FailSoftPrefetcher *failsoft = nullptr;
    FailSoftDataPrefetcher *dfailsoft = nullptr;
    Cghc *cghc = nullptr;
};

Engines
buildEngines(MemoryHierarchy &mem, const SimConfig &config,
             JobTallies &tallies)
{
    Engines e;
    std::unique_ptr<InstrPrefetcher> inner;
    switch (config.prefetch) {
      case PrefetchKind::None:
        break;
      case PrefetchKind::NextNLine:
        inner = std::make_unique<NextNLinePrefetcher>(mem.l1i(),
                                                      config.depth);
        break;
      case PrefetchKind::Cgp: {
        auto cgp = std::make_unique<CgpPrefetcher>(
            mem.l1i(), config.cghc, config.depth);
        e.cghc = &cgp->cghc();
        inner = std::move(cgp);
        break;
      }
      default:
        throw std::invalid_argument(
            std::string("traced run does not wire prefetcher ") +
            prefetchKindName(config.prefetch));
    }
    if (inner != nullptr) {
        auto fs = std::make_unique<FailSoftPrefetcher>(std::move(inner));
        e.failsoft = fs.get();
        e.iengine = std::make_unique<TimedInstrPrefetcher>(
            std::move(fs), tallies.ihooks, tallies.warming);
    }

    if (auto dinner = makeDataPrefetcher(mem.l1d(), config.dprefetch)) {
        auto fs =
            std::make_unique<FailSoftDataPrefetcher>(std::move(dinner));
        e.dfailsoft = fs.get();
        e.dengine = std::make_unique<TimedDataPrefetcher>(
            std::move(fs), tallies.dhooks);
    }
    return e;
}

// The collection below mirrors harness/simulator.cc field for field:
// the traced result must compare equal to the untraced one.

void
addCacheCounters(SimResult &r, const Cache &l1i, const Cache &l1d)
{
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
}

void
addArbiterCounters(SimResult &r, const PrefetchArbiter *arb)
{
    if (arb == nullptr)
        return;
    const auto grab = [arb](ArbiterBreakdown &b, AccessSource src) {
        b.issued += arb->issued(src);
        b.deferred += arb->deferred(src);
        b.dropped += arb->dropped(src);
        b.duplicateMerged += arb->duplicateMerged(src);
    };
    grab(r.arbNl, AccessSource::PrefetchNL);
    grab(r.arbCghc, AccessSource::PrefetchCGHC);
    grab(r.arbDpf, AccessSource::DataPrefetch);
}

void
addEngineCounters(SimResult &r, const Engines &e)
{
    if (e.cghc != nullptr) {
        r.cghcAccesses += e.cghc->accesses();
        r.cghcHits += e.cghc->hits();
    }
    if (r.prefetchDegraded)
        return;
    if (e.failsoft != nullptr && e.failsoft->degraded()) {
        r.prefetchDegraded = true;
        r.degradedReason = e.failsoft->reason();
    } else if (e.dfailsoft != nullptr && e.dfailsoft->degraded()) {
        r.prefetchDegraded = true;
        r.degradedReason = e.dfailsoft->reason();
    }
}

ExpanderConfig
expanderConfig(const SimConfig &config)
{
    ExpanderConfig c;
    c.instrScale = config.layout == LayoutKind::PettisHansen
        ? config.omInstrScale
        : 1.0;
    return c;
}

CodeImage
buildImage(const Workload &w, const SimConfig &config)
{
    static const ExecutionProfile empty;
    return LayoutBuilder(*w.registry)
        .build(config.layout, w.omProfile ? *w.omProfile : empty);
}

/** Checkpoint hooks that record their host time as exp spans. */
sample::CheckpointHooks
timedHooks(sample::CheckpointHooks inner, Tracer &tracer,
           const std::string &job)
{
    sample::CheckpointHooks h;
    h.load = [inner, &tracer, job](const std::string &key) {
        const double t = tracer.now();
        auto doc = inner.load(key);
        tracer.record("exp.checkpoint", job, t, tracer.now() - t);
        return doc;
    };
    h.save = [inner, &tracer, job](const std::string &key, Json &&doc) {
        const double t = tracer.now();
        inner.save(key, std::move(doc));
        tracer.record("exp.checkpoint", job, t, tracer.now() - t);
    };
    return h;
}

TracedJob
runSingle(const Workload &w, const SimConfig &config,
          const CodeImage &image, const std::string &checkpointDir,
          const std::string &id, JobTallies &tallies, Tracer &tracer)
{
    BufferTraceSource buffer(*w.trace);
    TimedTraceSource source(buffer, tallies.pulls);
    InstructionExpander stream(*w.registry, image, source,
                               expanderConfig(config));
    MemoryHierarchy mem(config.mem);
    Engines engines = buildEngines(mem, config, tallies);
    CoreConfig core_cfg = config.core;
    core_cfg.perfectICache = config.perfectICache;
    Core core(stream, mem, engines.iengine.get(), core_cfg,
              engines.dengine.get());

    TracedJob out;
    SimResult &r = out.result;
    const double t = tracer.now();
    if (config.sample.enabled) {
        if (engines.dengine != nullptr) {
            throw std::invalid_argument(
                "traced run does not checkpoint D-engines");
        }
        sample::CheckpointParts parts;
        parts.l1i = &mem.l1i();
        parts.l1d = &mem.l1d();
        parts.l2 = &mem.l2();
        parts.branch = &core.branchUnit();
        parts.cghc = engines.cghc;
        parts.core = &core;
        sample::SampleConfig sc = config.sample;
        if (sc.useCheckpoints) {
            sc.checkpoints = timedHooks(
                exp::makeSealedCheckpointStore(checkpointDir), tracer,
                id);
        }
        r.sampled = sample::runSampled(core, mem, stream, sc, parts,
                                       w.name, config.describe());
        tracer.record("sample.run", id, t, tracer.now() - t);
        r.sampledEnabled = true;
    } else {
        core.run();
        tracer.record("cpu.run", id, t, tracer.now() - t);
    }

    r.workload = w.name;
    r.cycles = core.cycles();
    r.instrs = core.committedInstrs() + r.sampled.warmedInstrs;
    addCacheCounters(r, mem.l1i(), mem.l1d());
    r.l2Misses = mem.l2().demandMisses();
    addArbiterCounters(r, mem.arbiter());
    r.busLines = mem.port().requests();
    r.branchMispredicts = core.branchUnit().mispredicts();
    addEngineCounters(r, engines);
    r.instrsPerCall = stream.instrsPerCall();

    out.extras.fetchStallCycles = core.fetchIcacheStallCycles();
    out.extras.idleCycles = core.idleCycles();
    out.extras.portWaitCycles = mem.port().waitCycles();
    return out;
}

TracedJob
runServer(const Workload &w, const SimConfig &config,
          const CodeImage &image, const std::string &id,
          JobTallies &tallies, Tracer &tracer)
{
    server::ServerWiring wiring;
    wiring.registry = w.registry.get();
    wiring.image = &image;
    wiring.expand = expanderConfig(config);
    wiring.mem = config.mem;
    wiring.core = config.core;
    wiring.core.perfectICache = config.perfectICache;
    wiring.sample = config.sample;
    wiring.sample.checkpoints = {};
    if (config.server.singleStream) {
        wiring.singleStream = w.trace.get();
    } else if (w.queryLibrary != nullptr && !w.queryLibrary->empty()) {
        for (const auto &q : *w.queryLibrary)
            wiring.queries.push_back(&q);
        wiring.switchStub = w.switchStub.get();
    } else {
        wiring.queries.push_back(w.trace.get());
    }

    std::vector<Engines> engines(config.server.cores);
    wiring.engines = [&](MemoryHierarchy &mem, unsigned coreId) {
        Engines e = buildEngines(mem, config, tallies);
        server::EnginePair pair;
        pair.iengine = std::move(e.iengine);
        pair.dengine = std::move(e.dengine);
        engines[coreId] = std::move(e);
        return pair;
    };

    server::DbServer srv(config.server, wiring);
    const double t = tracer.now();
    srv.run();
    tracer.record("server.run", id, t, tracer.now() - t);

    TracedJob out;
    SimResult &r = out.result;
    r.workload = w.name;
    r.cycles = srv.cycles();
    std::uint64_t emitted = 0;
    std::uint64_t calls = 0;
    for (unsigned i = 0; i < srv.numCores(); ++i) {
        Core &core = srv.coreAt(i);
        r.instrs += core.committedInstrs();
        r.branchMispredicts += core.branchUnit().mispredicts();
        addCacheCounters(r, srv.memAt(i).l1i(), srv.memAt(i).l1d());
        addArbiterCounters(r, srv.memAt(i).arbiter());
        addEngineCounters(r, engines[i]);
        emitted += srv.expanderAt(i).emittedInstrs();
        calls += srv.expanderAt(i).emittedCalls();
        out.extras.fetchStallCycles += core.fetchIcacheStallCycles();
        out.extras.idleCycles += core.idleCycles();
    }
    r.l2Misses = srv.sharedL2().cache().demandMisses();
    r.busLines = srv.sharedL2().port().requests();
    r.instrsPerCall = calls == 0
        ? 0.0
        : static_cast<double>(emitted) / static_cast<double>(calls);
    r.serverEnabled = true;
    r.server = srv.stats();
    if (config.sample.enabled) {
        r.sampledEnabled = true;
        r.sampled = srv.sampledStats();
        r.instrs += r.sampled.warmedInstrs;
    }
    out.extras.portWaitCycles = srv.sharedL2().port().waitCycles();
    return out;
}

} // namespace

TracedJob
runTracedJob(const Workload &workload, const exp::JobSpec &job,
             const std::string &checkpointDir, Tracer &tracer)
{
    const std::string id = job.key();
    const SimConfig &config = job.config;
    const double start = tracer.now();

    double t = tracer.now();
    const CodeImage image = buildImage(workload, config);
    tracer.record("codegen.layout", id, t, tracer.now() - t);

    JobTallies tallies;
    TracedJob out = config.server.enabled
        ? runServer(workload, config, image, id, tallies, tracer)
        : runSingle(workload, config, image, checkpointDir, id, tallies,
                    tracer);
    out.result.config = job.label;

    tracer.recordFolded("trace.pull", id, start, tallies.pulls);
    tracer.recordFolded("prefetch.hook", id, start, tallies.ihooks);
    tracer.recordFolded("dprefetch.hook", id, start, tallies.dhooks);
    tracer.recordFolded("sample.warm", id, start, tallies.warming);
    tracer.record("job", id, start, tracer.now() - start);
    return out;
}

Drain
drainExpander(const Workload &workload, const SimConfig &config)
{
    const CodeImage image = buildImage(workload, config);
    BufferTraceSource buffer(*workload.trace);
    Tally pulls;
    TimedTraceSource source(buffer, pulls);
    InstructionExpander stream(*workload.registry, image, source,
                               expanderConfig(config));

    const auto t0 = Clock::now();
    DynInst inst;
    while (stream.next(inst)) {
    }
    Drain d;
    d.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    d.instrs = stream.emittedInstrs();
    return d;
}

} // namespace perfbench
