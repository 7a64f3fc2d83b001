/**
 * @file
 * The query interleaving behind every workload's pre-merged trace.
 * `legacyMerge` reproduces the schedule of the retired offline merger
 * (`interleaveTraces`) decision-for-decision: same rng stream, same
 * pick/re-pick rule, same jittered quanta, same Switch + stub
 * emission.  A regression test compares its output event for event
 * with that merger's, frozen in tests/golden/interleave_*.txt.
 */

#ifndef CGP_SERVER_COMPAT_HH
#define CGP_SERVER_COMPAT_HH

#include <cstdint>
#include <vector>

#include "trace/events.hh"

namespace cgp::server
{

/**
 * Interleave per-query traces the way the legacy `interleaveTraces`
 * did: Rng(0x5c4ed), a random pick that avoids re-selecting the last
 * thread, quantum = q/2 + rng.nextBelow(q) instructions.  Each turn
 * emits a Switch, then the stub, then the picked thread's events
 * until its quantum is used up or it ends.  The result stores only
 * its Switch events: the stub and every slice share the storage of
 * @p switchStub and @p threads (see TraceBuffer::appendRange).
 * @param threads Per-query traces, in legacy thread order.
 * @param quantumInstrs Legacy scheduling quantum.
 * @param switchStub Scheduler-stub events replayed after each
 *        Switch (may be null).
 */
TraceBuffer legacyMerge(
    const std::vector<const TraceBuffer *> &threads,
    std::uint64_t quantumInstrs, const TraceBuffer *switchStub);

} // namespace cgp::server

#endif // CGP_SERVER_COMPAT_HH
