/**
 * @file
 * Simulation driver: bind a workload trace to a layout, run it
 * through the Table 1 machine under a SimConfig, and collect the
 * numbers every paper figure needs.  The machine is always a
 * server::DbServer: one core replaying the pre-merged trace unless
 * config.server enables the multi-core model.
 */

#ifndef CGP_HARNESS_SIMULATOR_HH
#define CGP_HARNESS_SIMULATOR_HH

#include <cstdint>
#include <string>

#include "harness/simconfig.hh"
#include "harness/workload.hh"
#include "sample/estimator.hh"
#include "server/stats.hh"

namespace cgp
{

/** Prefetch classification for one source (Figure 8/9 bars). */
struct PrefetchBreakdown
{
    std::uint64_t issued = 0;
    std::uint64_t prefHits = 0;
    std::uint64_t delayedHits = 0;
    std::uint64_t useless = 0;

    double
    usefulFraction() const
    {
        const auto useful = prefHits + delayedHits;
        const auto classified = useful + useless;
        return classified == 0
            ? 0.0
            : static_cast<double>(useful)
                / static_cast<double>(classified);
    }

    bool operator==(const PrefetchBreakdown &) const = default;
};

/** Per-engine arbiter accounting (shared L2-port arbitration). */
struct ArbiterBreakdown
{
    std::uint64_t issued = 0;    ///< admitted and sent to the cache
    std::uint64_t deferred = 0;  ///< queued behind demand traffic
    std::uint64_t dropped = 0;   ///< duplicate-filtered, gated, or
                                 ///< overflowed/stale
    std::uint64_t duplicateMerged = 0; ///< merged with a pending or
                                       ///< already-covered request

    bool
    any() const
    {
        return issued + deferred + dropped + duplicateMerged != 0;
    }

    bool operator==(const ArbiterBreakdown &) const = default;
};

struct SimResult
{
    std::string workload;
    std::string config;

    Cycle cycles = 0;
    std::uint64_t instrs = 0;

    std::uint64_t icacheAccesses = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t dcacheMisses = 0;
    std::uint64_t l2Misses = 0;

    PrefetchBreakdown nl;   ///< NL-attributed prefetches (I-side)
    PrefetchBreakdown cghc; ///< CGHC-attributed prefetches (I-side)
    PrefetchBreakdown dpf;  ///< data-prefetch engine (D-side)
    std::uint64_t squashedPrefetches = 0;  ///< L1-I squashes
    std::uint64_t dSquashedPrefetches = 0; ///< L1-D squashes

    /// @{ Shared-port arbitration, per engine (all zero when the
    /// arbiter is disabled).
    ArbiterBreakdown arbNl;
    ArbiterBreakdown arbCghc;
    ArbiterBreakdown arbDpf;
    /// @}

    /** L2->L1 lines moved (demand fills + prefetch fills). */
    std::uint64_t busLines = 0;

    std::uint64_t branchMispredicts = 0;
    std::uint64_t cghcAccesses = 0;
    std::uint64_t cghcHits = 0;

    /**
     * True when the prefetcher faulted (at construction or mid-run)
     * and the simulation finished without prefetching from that
     * point — graceful degradation, not a crash.
     */
    bool prefetchDegraded = false;
    std::string degradedReason; ///< what disabled it (empty if healthy)

    double instrsPerCall = 0.0; ///< paper §5.4: ~43 for DBMS

    /// @{ Multi-core server-model run (config.server.enabled): the
    /// scalar counters above are aggregated across cores; `server`
    /// carries the per-core breakdown and session-latency summary.
    bool serverEnabled = false;
    server::ServerStats server;
    /// @}

    /// @{ Sampled run (config.sample.enabled): cycles/instrs above
    /// include the fast-forwarded regions (estimated clock, warmed
    /// instructions); `sampled` carries the per-window estimators
    /// and the detailed-cycle count the speedup claim rests on.
    bool sampledEnabled = false;
    sample::SampledStats sampled;
    /// @}

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instrs)
                               / static_cast<double>(cycles);
    }

    PrefetchBreakdown
    totalPrefetch() const
    {
        PrefetchBreakdown t;
        t.issued = nl.issued + cghc.issued;
        t.prefHits = nl.prefHits + cghc.prefHits;
        t.delayedHits = nl.delayedHits + cghc.delayedHits;
        t.useless = nl.useless + cghc.useless;
        return t;
    }

    /** Field-wise equality (serialization round-trip checks). */
    bool operator==(const SimResult &) const = default;
};

/**
 * Run one (workload, config) point.  Throws std::invalid_argument
 * for a sampled config in server admission mode (sampling is
 * single-stream only).
 */
SimResult runSimulation(const Workload &workload,
                        const SimConfig &config);

} // namespace cgp

#endif // CGP_HARNESS_SIMULATOR_HH
