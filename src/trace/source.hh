/**
 * @file
 * TraceSource: pull interface between trace storage and the
 * InstructionExpander.
 *
 * The legacy pipeline pre-merges every per-query trace into one
 * TraceBuffer (sharing their storage) and expands that.  The server
 * model instead streams events one at a time — a per-core source
 * multiplexes session traces under a scheduling quantum, so the
 * event sequence depends on simulated time.  The expander only
 * needs three answers from the storage side: "here is the next
 * event", "nothing right now, but more may come" (a core idling
 * between sessions), and "the stream is over".
 */

#ifndef CGP_TRACE_SOURCE_HH
#define CGP_TRACE_SOURCE_HH

#include <cstddef>

#include "trace/events.hh"

namespace cgp
{

class TraceSource
{
  public:
    enum class Pull
    {
        Event, ///< @p out holds the next event
        Dry,   ///< no event this cycle; retry later
        End    ///< the stream is exhausted for good
    };

    virtual ~TraceSource() = default;

    /** Produce the next trace event, if any. */
    virtual Pull next(TraceEvent &out) = 0;
};

/** Adapts a pre-recorded TraceBuffer to the pull interface (the
 *  single-stream machine; never returns Dry). */
class BufferTraceSource final : public TraceSource
{
  public:
    explicit BufferTraceSource(const TraceBuffer &buffer)
        : cursor_(buffer)
    {
    }

    Pull
    next(TraceEvent &out) override
    {
        return cursor_.next(out) ? Pull::Event : Pull::End;
    }

  private:
    TraceBuffer::Cursor cursor_;
};

} // namespace cgp

#endif // CGP_TRACE_SOURCE_HH
