/**
 * @file
 * Trace serialization: the byte image of a recorded TraceBuffer.
 * The DB trace digest golden hashes it, so any change to what a
 * workload records, or to how events pack, shows there.
 *
 * Format: a 16-byte header (magic, version, event count) followed by
 * the packed 64-bit events in little-endian order, with a trailing
 * FNV-1a checksum of the event words.
 */

#ifndef CGP_TRACE_SERIALIZE_HH
#define CGP_TRACE_SERIALIZE_HH

#include <cstdint>
#include <iosfwd>

#include "trace/events.hh"

namespace cgp
{

/** Magic bytes identifying a trace file ("CGPTRACE" truncated). */
constexpr std::uint64_t traceFileMagic = 0x43475054'52414345ull;

/** Current on-disk format version. */
constexpr std::uint32_t traceFileVersion = 1;

/** Write @p trace to @p os. @return false on stream failure. */
bool saveTrace(const TraceBuffer &trace, std::ostream &os);

} // namespace cgp

#endif // CGP_TRACE_SERIALIZE_HH
