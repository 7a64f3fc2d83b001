/**
 * @file
 * The query interleaving behind every workload's pre-merged trace:
 * the per-query traces stream through a server-style source that
 * reproduces the schedule of the retired offline merger
 * (`interleaveTraces`) decision-for-decision (same rng stream, same
 * pick/re-pick rule, same jittered quanta, same Switch + stub
 * emission).  `legacyMerge` drains it into one buffer; a regression
 * test compares the result event for event with that merger's
 * output, frozen in tests/golden/interleave_*.txt.
 */

#ifndef CGP_SERVER_COMPAT_HH
#define CGP_SERVER_COMPAT_HH

#include <cstdint>
#include <vector>

#include "trace/events.hh"
#include "trace/source.hh"
#include "util/rng.hh"

namespace cgp::server
{

/** Streaming reproduction of the legacy `interleaveTraces` schedule
 *  (Rng(0x5c4ed), random pick avoiding back-to-back re-selection,
 *  quantum = q/2 + rng.nextBelow(q)). */
class LegacyInterleaveSource final : public TraceSource
{
  public:
    /**
     * @param threads Per-query traces, in legacy thread order.
     * @param quantumInstrs Legacy scheduling quantum.
     * @param switchStub Scheduler-stub events replayed after each
     *        Switch (may be null).
     */
    LegacyInterleaveSource(
        const std::vector<const TraceBuffer *> &threads,
        std::uint64_t quantumInstrs, const TraceBuffer *switchStub);

    Pull next(TraceEvent &out) override;

  private:
    /** Pick the next thread + quantum (legacy rng call order). */
    void bind();

    const std::vector<const TraceBuffer *> threads_;
    const std::uint64_t quantumInstrs_;
    const TraceBuffer *stub_;
    Rng rng_;

    std::vector<std::size_t> cursor_;
    std::vector<std::size_t> runnable_;
    std::size_t last_;
    std::size_t pick_ = 0;
    bool bound_ = false;
    bool pendingSwitch_ = false;
    std::size_t stubCursor_ = 0;
    std::uint64_t quantum_ = 0;
    std::uint64_t used_ = 0;
};

/** Drain the shim into one buffer. */
TraceBuffer legacyMerge(
    const std::vector<const TraceBuffer *> &threads,
    std::uint64_t quantumInstrs, const TraceBuffer *switchStub);

} // namespace cgp::server

#endif // CGP_SERVER_COMPAT_HH
