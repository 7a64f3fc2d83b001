/**
 * @file
 * Compact dynamic trace representation.
 *
 * A trace is a sequence of 64-bit packed events recorded while the
 * workload (DBMS, SPEC proxy) executes natively.  Events are
 * layout independent: they name functions and work amounts, never
 * addresses of code.  Data addresses (buffer pool pages, tuples) are
 * synthetic data-segment addresses chosen by the workload.
 */

#ifndef CGP_TRACE_EVENTS_HH
#define CGP_TRACE_EVENTS_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
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
 * A recorded event sequence plus summary counts, stored as runs over
 * shared, append-only chunks of packed events.
 *
 * A recorded buffer is one run over a chunk it created.  appendRange
 * adds runs that read another buffer's chunks in place, so a merged
 * trace stores only the events it appends itself (its Switch
 * events).  A buffer writes a chunk only if it created it and no
 * other buffer (or copy) references it; otherwise append starts a
 * new chunk.  Shared storage is therefore never written, whatever
 * later happens to the buffer it came from.  Summary counts are
 * maintained on append so the interleaver can meter quanta cheaply.
 */
class TraceBuffer
{
    using Chunk = std::vector<std::uint64_t>;

    /** Chunk events [begin, end), at buffer positions from start. */
    struct Run
    {
        std::shared_ptr<const Chunk> chunk;
        std::size_t begin;
        std::size_t end;
        std::size_t start;
    };

  public:
    class Cursor;

    TraceBuffer() = default;
    TraceBuffer(const TraceBuffer &) = default;
    TraceBuffer &operator=(const TraceBuffer &) = default;
    TraceBuffer(TraceBuffer &&other) noexcept { *this = std::move(other); }
    TraceBuffer &operator=(TraceBuffer &&other) noexcept;

    void
    append(TraceEvent e)
    {
        // Extend the last run while it ends own_ and no one else
        // reads own_.
        if (runs_.empty() || runs_.back().chunk != own_ ||
            runs_.back().end != own_->size() ||
            own_.use_count() != static_cast<long>(1 + ownRuns_))
            startRun();
        own_->push_back(e.raw());
        ++runs_.back().end;
        ++size_;
        count(e, approxInstrs_, calls_);
        if (runs_.size() == 1)
            flat_ = own_->data() + runs_.front().begin;
    }

    /**
     * Append events [@p begin, @p end) of @p src by sharing its
     * storage: no event is copied, and @p src may later be appended
     * to, cleared or destroyed without changing this buffer.
     */
    void appendRange(const TraceBuffer &src, std::size_t begin,
                     std::size_t end);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Random access; a plain index on a one-run buffer, a search
     *  over the runs otherwise (sequential readers use Cursor). */
    TraceEvent
    at(std::size_t i) const
    {
        cgp_assert(i < size_, "trace index out of range");
        if (flat_ != nullptr)
            return TraceEvent::fromRaw(flat_[i]);
        const Run &r = runs_[runAt(i)];
        return TraceEvent::fromRaw((*r.chunk)[r.begin + (i - r.start)]);
    }

    /** Work-payload-weighted length; used for quantum metering. */
    std::uint64_t approxInstrs() const { return approxInstrs_; }

    /** Dynamic call count. */
    std::uint64_t calls() const { return calls_; }

    /** Storage diagnostic: how many of this buffer's events lie in
     *  chunks that @p other also reads. */
    std::size_t eventsSharedWith(const TraceBuffer &other) const;

    void
    clear()
    {
        runs_.clear();
        own_.reset();
        ownRuns_ = 0;
        flat_ = nullptr;
        size_ = 0;
        approxInstrs_ = 0;
        calls_ = 0;
    }

  private:
    /** Add @p e to the summary counts @p instrs and @p calls. */
    static void
    count(TraceEvent e, std::uint64_t &instrs, std::uint64_t &calls)
    {
        // Hints are metadata riding on the stream and cost no
        // instruction.  Branch-free, so a counting loop vectorizes.
        const EventKind kind = e.kind();
        instrs += kind == EventKind::Work
            ? e.payload()
            : static_cast<std::uint64_t>(kind != EventKind::Hint);
        calls += static_cast<std::uint64_t>(kind == EventKind::Call);
    }

    /** Point flat_ at the only run's events, if there is one run. */
    void
    setFlat()
    {
        flat_ = runs_.size() == 1
            ? runs_.front().chunk->data() + runs_.front().begin
            : nullptr;
    }

    /** Open an empty run at the end of own_, first replacing own_
     *  with a new chunk if another buffer also reads it. */
    void startRun();

    /** Index of the run holding event @p i (i < size()). */
    std::size_t runAt(std::size_t i) const;

    std::vector<Run> runs_;
    /** The chunk append writes while no one else references it. */
    std::shared_ptr<Chunk> own_;
    /** How many of runs_ read own_ (to tell its other readers). */
    std::size_t ownRuns_ = 0;
    /** First event of the only run; null unless runs_.size() == 1. */
    const std::uint64_t *flat_ = nullptr;
    std::size_t size_ = 0;
    std::uint64_t approxInstrs_ = 0;
    std::uint64_t calls_ = 0;
};

/**
 * Sequential reader of a TraceBuffer: walks the runs in order, one
 * pointer step per event.  Appending to or clearing the buffer
 * invalidates it.
 */
class TraceBuffer::Cursor
{
  public:
    explicit Cursor(const TraceBuffer &buffer);

    /** The next event into @p out; false at the end of the buffer. */
    bool
    next(TraceEvent &out)
    {
        if (p_ == end_ && !nextRun())
            return false;
        out = TraceEvent::fromRaw(*p_++);
        return true;
    }

    /** Buffer position of the event next() returns next. */
    std::size_t position() const;

  private:
    /** Step to the next run; false after the last. */
    bool nextRun();

    const TraceBuffer *buf_;
    std::size_t run_ = 0;
    /** The current run's unread events. */
    const std::uint64_t *p_ = nullptr;
    const std::uint64_t *end_ = nullptr;
};

} // namespace cgp

#endif // CGP_TRACE_EVENTS_HH
