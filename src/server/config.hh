/**
 * @file
 * Configuration of the multi-core DB server model (see DESIGN.md
 * §10): N cores with private L1s + prefetch engines in front of one
 * shared L2, fed by a closed-loop population of client sessions
 * through a FIFO admission scheduler.  Every run goes through the
 * server; a disabled config means one core on one stream.
 */

#ifndef CGP_SERVER_CONFIG_HH
#define CGP_SERVER_CONFIG_HH

#include <cstdint>

namespace cgp::server
{

struct ServerConfig
{
    /**
     * Model the workload as a server: the fields below apply and
     * the result carries a `server` block.  When false the run is
     * still a DbServer, fixed at one core replaying the workload's
     * pre-merged trace (singleStream, one session), and the rest of
     * this struct is ignored.
     */
    bool enabled = false;

    /** Cores, each with private L1-I/L1-D/CGP/D-engine/arbiter. */
    unsigned cores = 1;

    /** Concurrent client sessions (closed loop). */
    unsigned sessions = 1;

    /**
     * Replay the workload's pre-merged trace on core 0 instead of
     * running the admission scheduler (cores must be 1).  This is
     * the machine every run with `enabled == false` uses, so an
     * enabled single-stream run differs from it only in the config
     * label and the `server` block.  It is also the only mode that
     * can be sampled.
     */
    bool singleStream = false;

    /** Instructions per scheduling quantum (jittered ±50% like the
     *  legacy interleaver). */
    std::uint64_t quantumInstrs = 60000;

    /** Mean of the exponential per-session think time, in cycles
     *  (0 = no think time: sessions resubmit immediately). */
    double thinkMeanCycles = 50000.0;

    /** Zipf skew of the query mix over the workload's query library
     *  (0 = uniform). */
    double zipfTheta = 0.75;

    /** Queries a session issues before retiring (0 = unbounded;
     *  then totalQueries must be set). */
    std::uint64_t queriesPerSession = 0;

    /** Global stop target: once this many queries completed, the
     *  server drains and stops admitting (0 = per-session limits
     *  only). */
    std::uint64_t totalQueries = 0;

    /** Base seed; per-session and per-core streams are derived
     *  through splitmix64 (the Rng seeding), so any session's think
     *  and mix sequences are reproducible in isolation. */
    std::uint64_t seed = 0x5e55;
};

} // namespace cgp::server

#endif // CGP_SERVER_CONFIG_HH
