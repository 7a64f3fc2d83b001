#include "server/server.hh"

#include <algorithm>
#include <stdexcept>

#include "sample/controller.hh"
#include "util/logging.hh"

namespace cgp::server
{

DbServer::DbServer(const ServerConfig &config, ServerWiring wiring)
    : config_(config), wiring_(std::move(wiring)),
      shared_(wiring_.mem.l2)
{
    cgp_assert(wiring_.registry != nullptr && wiring_.image != nullptr,
               "incomplete server wiring");
    cgp_assert(config_.cores >= 1, "server needs at least one core");

    if (config_.singleStream) {
        cgp_assert(config_.cores == 1,
                   "singleStream mode is single-core");
        cgp_assert(wiring_.singleStream != nullptr,
                   "singleStream mode without a trace");
    } else {
        if (wiring_.sample.enabled)
            throw std::invalid_argument(
                "sampling is single-stream only: admission-mode "
                "sessions are still in think time during the warm-up, "
                "so it would warm nothing");
        cgp_assert(!wiring_.queries.empty(),
                   "admission mode without a query library");
        sched_ = std::make_unique<AdmissionScheduler>(
            config_, wiring_.queries.size());
    }

    CoreConfig core_cfg = wiring_.core;
    for (unsigned i = 0; i < config_.cores; ++i) {
        auto unit = std::make_unique<CoreUnit>();
        unit->mem = std::make_unique<MemoryHierarchy>(
            wiring_.mem, shared_, i);
        if (config_.singleStream) {
            unit->bufferSource = std::make_unique<BufferTraceSource>(
                *wiring_.singleStream);
            unit->expander = std::make_unique<InstructionExpander>(
                *wiring_.registry, *wiring_.image,
                *unit->bufferSource, wiring_.expand);
        } else {
            unit->source = std::make_unique<CoreTraceSource>(
                *sched_, wiring_.queries, wiring_.switchStub,
                config_, i);
            unit->expander = std::make_unique<InstructionExpander>(
                *wiring_.registry, *wiring_.image, *unit->source,
                wiring_.expand);
        }
        if (wiring_.engines)
            unit->engines = wiring_.engines(*unit->mem, i);
        unit->core = std::make_unique<Core>(
            *unit->expander, *unit->mem,
            unit->engines.iengine.get(), core_cfg,
            unit->engines.dengine.get());
        units_.push_back(std::move(unit));
    }
}

DbServer::~DbServer() = default;

void
DbServer::run()
{
    if (config_.singleStream) {
        // One core on one stream needs no lockstep: core 0 runs its
        // own loop, or the sampling controller with a checkpoint
        // covering the shared L2 and whatever its engines register.
        CoreUnit &u = *units_.front();
        if (wiring_.sample.enabled) {
            sample::CheckpointParts parts;
            parts.l1i = &u.mem->l1i();
            parts.l1d = &u.mem->l1d();
            parts.l2 = &shared_.cache();
            parts.branch = &u.core->branchUnit();
            parts.core = u.core.get();
            if (u.engines.iengine != nullptr)
                u.engines.iengine->addCheckpointParts(parts);
            if (u.engines.dengine != nullptr)
                u.engines.dengine->addCheckpointParts(parts);
            sampledStats_ = sample::runSampled(
                *u.core, *u.mem, *u.expander, wiring_.sample, parts,
                wiring_.workload, wiring_.configLabel);
        } else {
            u.core->run();
        }
        finalize();
        return;
    }

    for (auto &u : units_)
        u->core->beginRun();

    Cycle cycle = 0;
    for (;;) {
        bool running = false;
        for (auto &u : units_) {
            if (!u->core->finished()) {
                running = true;
                break;
            }
        }
        if (!running)
            break;
        ++cycle;
        sched_->wake(cycle);
        // Fixed core order every cycle: scheduler decisions (and
        // thus the whole run) are deterministic.
        for (auto &u : units_) {
            if (u->core->finished())
                continue;
            u->source->setNow(cycle);
            u->core->stepCycle();
        }
    }
    finalize();
}

void
DbServer::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    // Per-core state first (arbiter, L1s), then the shared L2 once —
    // the same order the owning single-core hierarchy uses.
    for (auto &u : units_)
        u->mem->finalize();
    shared_.finalize();
}

Cycle
DbServer::cycles() const
{
    Cycle c = 0;
    for (const auto &u : units_)
        c = std::max(c, u->core->cycles());
    return c;
}

ServerStats
DbServer::stats() const
{
    ServerStats s;
    s.cores = units_.size();
    s.sessions = config_.singleStream ? 1 : config_.sessions;
    s.cycles = cycles();
    s.portWaitCycles = shared_.port().waitCycles();

    if (sched_ != nullptr) {
        s.queriesServed = sched_->queriesServed();
        std::vector<std::uint64_t> lat = sched_->latencies();
        std::sort(lat.begin(), lat.end());
        s.latencyP50 = percentile(lat, 50.0);
        s.latencyP95 = percentile(lat, 95.0);
        s.latencyP99 = percentile(lat, 99.0);
    }

    for (unsigned i = 0; i < units_.size(); ++i) {
        const CoreUnit &u = *units_[i];
        ServerCoreStats c;
        c.cycles = u.core->cycles();
        c.instrs = u.core->committedInstrs();
        c.idleCycles = u.core->idleCycles();
        c.icacheAccesses = u.mem->l1i().demandAccesses();
        c.icacheMisses = u.mem->l1i().demandMisses();
        c.dcacheAccesses = u.mem->l1d().demandAccesses();
        c.dcacheMisses = u.mem->l1d().demandMisses();
        c.busLines = shared_.port().requestsBy(i);
        c.portWaitCycles = shared_.port().waitCyclesBy(i);
        if (u.source != nullptr) {
            c.queries = u.source->queriesCompleted();
            c.binds = u.source->binds();
        }
        s.binds += c.binds;
        s.perCore.push_back(c);
    }
    return s;
}

} // namespace cgp::server
