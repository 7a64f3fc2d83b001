/**
 * @file
 * Compact dynamic trace representation.
 *
 * A trace is a flat sequence of 64-bit packed events recorded while
 * the workload (DBMS, SPEC proxy) executes natively.  Events are
 * layout independent: they name functions and work amounts, never
 * addresses of code.  Data addresses (buffer pool pages, tuples) are
 * synthetic data-segment addresses chosen by the workload.
 */

#ifndef CGP_TRACE_EVENTS_HH
#define CGP_TRACE_EVENTS_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace cgp
{

enum class EventKind : std::uint8_t
{
    Call = 1,   ///< enter function (payload: FunctionId)
    Return = 2, ///< leave current function
    Work = 3,   ///< straight-line work (payload: instruction count)
    Branch = 4, ///< data-dependent branch (payload: taken bit)
    Load = 5,   ///< explicit data read (payload: address)
    Store = 6,  ///< explicit data write (payload: address)
    Switch = 7, ///< context switch (payload: thread id)
    Hint = 8    ///< data-prefetch hint (payload: kind + address)
};

/**
 * What a semantic data-prefetch hint announces.  Emitted by the
 * storage manager while the workload records its trace (the code
 * *knows* which page/slot it will touch next) and consumed at
 * simulation time by the DB-semantic data prefetcher.
 */
enum class DataHintKind : std::uint8_t
{
    BtreeChild = 0,    ///< child node the descent will fix next
    BtreeNextLeaf = 1, ///< leaf-chain successor of a range scan
    HeapNextSlot = 2,  ///< next record of a sequential scan
    HeapNextPage = 3,  ///< next page of a sequential scan
    HeapRecord = 4,    ///< record about to be fetched by RID
    NumKinds = 5
};

/** One packed event: kind in the top 4 bits, payload below. */
class TraceEvent
{
  public:
    static constexpr unsigned kindShift = 60;
    static constexpr std::uint64_t payloadMask =
        (1ull << kindShift) - 1;

    static TraceEvent
    make(EventKind kind, std::uint64_t payload)
    {
        cgp_assert(payload <= payloadMask, "event payload overflow");
        return TraceEvent(
            (static_cast<std::uint64_t>(kind) << kindShift) | payload);
    }

    EventKind
    kind() const
    {
        return static_cast<EventKind>(bits_ >> kindShift);
    }

    std::uint64_t payload() const { return bits_ & payloadMask; }

    std::uint64_t raw() const { return bits_; }
    static TraceEvent fromRaw(std::uint64_t raw) { return TraceEvent(raw); }

  private:
    explicit TraceEvent(std::uint64_t bits) : bits_(bits) {}

    std::uint64_t bits_;
};

/**
 * Hint payload layout: hint kind in payload bits 56..59, address in
 * bits 0..55 (all synthetic data-segment addresses fit well below
 * 2^56).
 */
constexpr unsigned hintKindShift = 56;
constexpr std::uint64_t hintAddrMask = (1ull << hintKindShift) - 1;

inline TraceEvent
makeHintEvent(DataHintKind kind, Addr addr)
{
    cgp_assert((addr & ~hintAddrMask) == 0, "hint address overflow");
    return TraceEvent::make(
        EventKind::Hint,
        (static_cast<std::uint64_t>(kind) << hintKindShift) | addr);
}

inline DataHintKind
hintKindOf(std::uint64_t payload)
{
    return static_cast<DataHintKind>(payload >> hintKindShift);
}

inline Addr
hintAddrOf(std::uint64_t payload)
{
    return payload & hintAddrMask;
}

/**
 * A recorded event sequence plus summary counts.  Summary counts are
 * maintained on append so the interleaver can meter quanta cheaply.
 */
class TraceBuffer
{
  public:
    void
    append(TraceEvent e)
    {
        events_.push_back(e.raw());
        switch (e.kind()) {
          case EventKind::Work:
            approxInstrs_ += e.payload();
            break;
          case EventKind::Call:
            ++calls_;
            ++approxInstrs_;
            break;
          case EventKind::Hint:
            // Metadata riding on the stream; costs no instruction.
            break;
          default:
            ++approxInstrs_;
            break;
        }
    }

    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    TraceEvent
    at(std::size_t i) const
    {
        cgp_assert(i < events_.size(), "trace index out of range");
        return TraceEvent::fromRaw(events_[i]);
    }

    /** Work-payload-weighted length; used for quantum metering. */
    std::uint64_t approxInstrs() const { return approxInstrs_; }

    /** Dynamic call count. */
    std::uint64_t calls() const { return calls_; }

    void
    clear()
    {
        events_.clear();
        approxInstrs_ = 0;
        calls_ = 0;
    }

  private:
    std::vector<std::uint64_t> events_;
    std::uint64_t approxInstrs_ = 0;
    std::uint64_t calls_ = 0;
};

} // namespace cgp

#endif // CGP_TRACE_EVENTS_HH
