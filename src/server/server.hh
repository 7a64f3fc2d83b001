/**
 * @file
 * DbServer: the simulated machine (DESIGN.md §10).  Every run is a
 * DbServer: a single-core run is one core in singleStream mode, a
 * server-model run is N cores fed by the admission scheduler.
 *
 * Topology: N cores, each owning a private L1-I/L1-D, its own
 * instruction- and data-prefetch engines and its own PrefetchArbiter,
 * all in front of one SharedL2 behind the shared FIFO port (per-core
 * request attribution gives the cross-core contention accounting).
 * In front, an AdmissionScheduler feeds closed-loop client sessions
 * (exponential think times, Zipf query mix over the workload's query
 * library) to the cores; each core's CoreTraceSource streams its
 * bound session's events into that core's private InstructionExpander
 * and Core, which the server steps in lockstep, one global cycle at
 * a time, in fixed core order (determinism).
 *
 * In singleStream mode the one core needs no lockstep: run() hands
 * it to Core::run, or, when wiring.sample is enabled, to
 * sample::runSampled with that core's checkpoint parts.  Sampling is
 * single-stream only; a sampled wiring in admission mode is rejected
 * at construction.
 */

#ifndef CGP_SERVER_SERVER_HH
#define CGP_SERVER_SERVER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "dprefetch/dprefetcher.hh"
#include "mem/hierarchy.hh"
#include "prefetch/prefetcher.hh"
#include "sample/config.hh"
#include "sample/estimator.hh"
#include "server/config.hh"
#include "server/scheduler.hh"
#include "server/source.hh"
#include "server/stats.hh"
#include "trace/expand.hh"
#include "trace/source.hh"

namespace cgp::server
{

/** Per-core prefetch engines built by the harness (the server does
 *  not know about SimConfig / fail-soft policy). */
struct EnginePair
{
    std::unique_ptr<InstrPrefetcher> iengine;
    std::unique_ptr<DataPrefetcher> dengine;
};

/** Called once per core, after that core's hierarchy exists. */
using EngineFactory =
    std::function<EnginePair(MemoryHierarchy &mem, unsigned coreId)>;

struct ServerWiring
{
    const FunctionRegistry *registry = nullptr;
    const CodeImage *image = nullptr;
    ExpanderConfig expand;
    /** Per-core L1 + arbiter geometry; `.l2` builds the SharedL2. */
    HierarchyConfig mem;
    CoreConfig core;
    /** May be empty: cores run without prefetch engines. */
    EngineFactory engines;

    /**
     * SMARTS-style sampling (DESIGN.md §11.2), singleStream mode
     * only.  The checkpoint hooks in here are honoured: core 0's
     * warm state, the shared L2 included, is saved and restored
     * under a key built from `workload` and `configLabel`.
     */
    sample::SampleConfig sample;
    /** Checkpoint identity of a sampled run. */
    std::string workload;
    std::string configLabel;

    /** singleStream mode: the pre-merged trace replayed on core 0. */
    const TraceBuffer *singleStream = nullptr;
    /** Admission mode: the query library sessions draw from. */
    std::vector<const TraceBuffer *> queries;
    /** Scheduler stub replayed at each bind (may be null). */
    const TraceBuffer *switchStub = nullptr;
};

class DbServer
{
  public:
    DbServer(const ServerConfig &config, ServerWiring wiring);
    ~DbServer();

    /** Run to completion (throws TimeoutError via the per-core
     *  watchdogs) and finalize all memory state. */
    void run();

    /** Global cycle count (max over cores). */
    Cycle cycles() const;

    unsigned
    numCores() const
    {
        return static_cast<unsigned>(units_.size());
    }
    Core &coreAt(unsigned i) { return *units_[i]->core; }
    MemoryHierarchy &memAt(unsigned i) { return *units_[i]->mem; }
    InstructionExpander &expanderAt(unsigned i)
    {
        return *units_[i]->expander;
    }
    InstrPrefetcher *iengineAt(unsigned i)
    {
        return units_[i]->engines.iengine.get();
    }
    DataPrefetcher *dengineAt(unsigned i)
    {
        return units_[i]->engines.dengine.get();
    }
    /** Null in singleStream mode. */
    const CoreTraceSource *
    sourceAt(unsigned i) const
    {
        return units_[i]->source.get();
    }

    SharedL2 &sharedL2() { return shared_; }
    /** Null in singleStream mode. */
    const AdmissionScheduler *scheduler() const { return sched_.get(); }

    /** Aggregate + per-core queueing statistics (valid after run). */
    ServerStats stats() const;

    /** Sampling estimators (valid after run when wiring.sample is
     *  enabled; zeroed otherwise). */
    const sample::SampledStats &sampledStats() const
    {
        return sampledStats_;
    }

  private:
    struct CoreUnit
    {
        std::unique_ptr<CoreTraceSource> source;
        std::unique_ptr<BufferTraceSource> bufferSource;
        std::unique_ptr<MemoryHierarchy> mem;
        std::unique_ptr<InstructionExpander> expander;
        EnginePair engines;
        std::unique_ptr<Core> core;
    };

    void finalize();

    ServerConfig config_;
    ServerWiring wiring_;
    SharedL2 shared_;
    std::unique_ptr<AdmissionScheduler> sched_;
    std::vector<std::unique_ptr<CoreUnit>> units_;
    sample::SampledStats sampledStats_;
    bool finalized_ = false;
};

} // namespace cgp::server

#endif // CGP_SERVER_SERVER_HH
