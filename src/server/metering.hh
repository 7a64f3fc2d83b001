/**
 * @file
 * Quantum metering shared by the per-core session source and the
 * legacy-interleave shim: the instruction cost a trace event
 * contributes to a scheduling quantum (the retired offline merger's
 * accounting, which the shim must reproduce byte-for-byte).
 */

#ifndef CGP_SERVER_METERING_HH
#define CGP_SERVER_METERING_HH

#include <cstdint>

#include "trace/events.hh"

namespace cgp::server
{

inline std::uint64_t
eventCost(TraceEvent e)
{
    switch (e.kind()) {
      case EventKind::Work:
        return e.payload();
      case EventKind::Switch:
      case EventKind::Hint:
        return 0;
      default:
        return 1;
    }
}

} // namespace cgp::server

#endif // CGP_SERVER_METERING_HH
