/**
 * @file
 * SimConfig: one experiment point — which binary (layout), which
 * prefetcher, CGHC geometry, perfect-I$ flag — on top of the fixed
 * Table 1 machine.  Named constructors produce the configurations
 * the paper's figures compare.
 */

#ifndef CGP_HARNESS_SIMCONFIG_HH
#define CGP_HARNESS_SIMCONFIG_HH

#include <string>

#include "codegen/layout.hh"
#include "cpu/core.hh"
#include "dprefetch/factory.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cghc.hh"
#include "sample/config.hh"
#include "server/config.hh"

namespace cgp
{

enum class PrefetchKind
{
    None,
    NextNLine,
    RunAheadNL,
    Cgp,
    SoftwareCgp ///< §6 future work: compiler-inserted prefetches
};

const char *prefetchKindName(PrefetchKind kind);

struct SimConfig
{
    LayoutKind layout = LayoutKind::Original;
    PrefetchKind prefetch = PrefetchKind::None;

    /** N: lines per prefetch action (NL_N / CGP_N). */
    unsigned depth = 4;

    /** M: skip distance of run-ahead NL (§5.6). */
    unsigned runaheadSkip = 4;

    CghcConfig cghc = CghcConfig::twoLevel2K32K();

    /** Data-side prefetch engine on the L1-D path (src/dprefetch). */
    DPrefetchConfig dprefetch;

    bool perfectICache = false;

    /**
     * OM's traditional link-time re-optimizations cut the dynamic
     * instruction count by 12% (paper §5.1); applied when the layout
     * is PettisHansen.
     */
    double omInstrScale = 0.88;

    CoreConfig core;       ///< Table 1 pipeline
    HierarchyConfig mem;   ///< Table 1 memory system

    /**
     * Multi-core server axis (src/server).  When enabled the point
     * runs N cores — private L1s, prefetch engines and arbiter per
     * core — against one shared L2, fed by closed-loop client
     * sessions through the admission scheduler.  Disabled (the
     * default) runs one core on the workload's pre-merged trace.
     */
    server::ServerConfig server;

    /**
     * SMARTS-style sampling axis (src/sample).  When enabled the
     * run alternates detailed windows with fast-forward functional
     * warming and reports CPI / miss-rate estimates with confidence
     * intervals; disabled (the default) the simulation path is
     * bit-identical to the legacy full-detail run.
     */
    sample::SampleConfig sample;

    /// @{ Named experiment points.
    static SimConfig o5();
    static SimConfig o5Om();
    static SimConfig withNL(LayoutKind layout, unsigned n);
    static SimConfig withCgp(LayoutKind layout, unsigned n);
    static SimConfig withCgpGeometry(LayoutKind layout, unsigned n,
                                     const CghcConfig &cghc);
    static SimConfig withRunAheadNL(LayoutKind layout, unsigned n,
                                    unsigned skip);
    static SimConfig withSoftwareCgp(LayoutKind layout, unsigned n);
    static SimConfig perfectICacheOn(LayoutKind layout);
    /** O5 binary, no I-prefetch, the given D-prefetch engine —
     *  isolates the data side for the figD_dstall campaign. */
    static SimConfig withDPrefetch(DataPrefetchKind kind);
    /**
     * The combined axis: I-side CGP_4 on the OM binary plus the
     * given D-side engine, both competing for the shared L2 port.
     * With @p throttled the shared prefetch arbiter is enabled
     * (accuracy-gated throttling, demand priority, duplicate
     * filtering — knobs in mem.arbiter); without it the engines
     * fire directly as in the isolated figures.
     */
    static SimConfig withIPlusD(DataPrefetchKind dkind,
                                bool throttled);
    /**
     * Lift any base configuration onto the N-core server: @p cores
     * cores serving @p sessions closed-loop sessions until
     * @p totalQueries queries have been admitted (a floor; admitted
     * queries run to completion).
     */
    static SimConfig withServer(SimConfig base, unsigned cores,
                                unsigned sessions,
                                std::uint64_t totalQueries);
    /**
     * Lift any base configuration onto sampled simulation: detailed
     * windows of @p windowCycles every @p periodCycles, functional
     * warming in between.
     */
    static SimConfig withSampling(SimConfig base, Cycle windowCycles,
                                  Cycle periodCycles,
                                  std::uint64_t warmupInstrs = 200000);
    /// @}

    /** Bar label in the paper's style ("O5+OM+CGP_4"). */
    std::string describe() const;
};

} // namespace cgp

#endif // CGP_HARNESS_SIMCONFIG_HH
