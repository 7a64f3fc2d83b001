/**
 * @file
 * Recording interface used by workload code.
 *
 * Every traced function takes a TraceRecorder reference and opens a
 * TraceScope; bodies report straight-line work, data-dependent
 * branches and page/tuple accesses.  The recorder is deliberately
 * trivial — the point is that the *call sequence* comes from a real
 * executing system, which is the property CGP exploits.
 */

#ifndef CGP_TRACE_RECORDER_HH
#define CGP_TRACE_RECORDER_HH

#include <cstdint>

#include "trace/events.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace cgp
{

class TraceRecorder
{
  public:
    /**
     * @param work_scale Multiplier applied to work() amounts.  The
     * workload skeletons annotate *relative* straight-line costs;
     * this calibration constant maps them to realistic absolute
     * instruction counts (chosen so the DBMS traces match the
     * paper's ~43 instructions between successive calls, §5.4).
     */
    explicit TraceRecorder(TraceBuffer &buf, double work_scale = 1.0)
        : buf_(&buf), workScale_(work_scale)
    {
    }

    /** A recorder with no buffer: it records nothing. */
    TraceRecorder() = default;

    void
    call(FunctionId fid)
    {
        cgp_assert(fid != invalidFunctionId, "call to invalid function");
        append(TraceEvent::make(EventKind::Call, fid));
        ++depth_;
    }

    void
    ret()
    {
        cgp_assert(depth_ > 0, "return with empty call stack");
        append(TraceEvent::make(EventKind::Return, 0));
        --depth_;
    }

    /** @p instrs straight-line instructions of work (scaled). */
    void
    work(std::uint32_t instrs)
    {
        const auto scaled = static_cast<std::uint32_t>(
            static_cast<double>(instrs) * workScale_ + 0.5);
        if (scaled > 0)
            append(TraceEvent::make(EventKind::Work, scaled));
    }

    /** A data-dependent branch with recorded direction. */
    void
    branch(bool taken)
    {
        append(TraceEvent::make(EventKind::Branch, taken ? 1 : 0));
    }

    void
    loadAt(Addr addr)
    {
        append(TraceEvent::make(EventKind::Load,
                                addr & TraceEvent::payloadMask));
    }

    void
    storeAt(Addr addr)
    {
        append(TraceEvent::make(EventKind::Store,
                                addr & TraceEvent::payloadMask));
    }

    /**
     * Semantic data-prefetch hint: the workload announces an address
     * it is about to touch (B-tree child node, next scan slot, ...).
     * Hints for unknown addresses (invalidAddr, e.g. a page not yet
     * resident in the buffer pool) are silently dropped — a hint is
     * an optimisation, never an obligation.
     */
    void
    hint(DataHintKind kind, Addr addr)
    {
        if (addr == invalidAddr || (addr & ~hintAddrMask) != 0)
            return;
        append(makeHintEvent(kind, addr));
    }

    /** Current call nesting depth (0 at top level). */
    unsigned depth() const { return depth_; }

    double workScale() const { return workScale_; }

  private:
    void
    append(TraceEvent e)
    {
        if (buf_ != nullptr)
            buf_->append(e);
    }

    TraceBuffer *buf_ = nullptr;
    double workScale_ = 1.0;
    unsigned depth_ = 0;
};

/**
 * RAII function-entry marker: emits Call on construction and Return
 * on destruction, guaranteeing balanced traces even with early
 * returns in the traced code.
 */
class TraceScope
{
  public:
    TraceScope(TraceRecorder &rec, FunctionId fid) : rec_(rec)
    {
        rec_.call(fid);
    }

    ~TraceScope() { rec_.ret(); }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /** Convenience passthroughs so bodies read naturally. */
    void work(std::uint32_t instrs) { rec_.work(instrs); }
    void branch(bool taken) { rec_.branch(taken); }
    void loadAt(Addr addr) { rec_.loadAt(addr); }
    void storeAt(Addr addr) { rec_.storeAt(addr); }
    void hint(DataHintKind k, Addr addr) { rec_.hint(k, addr); }

  private:
    TraceRecorder &rec_;
};

} // namespace cgp

#endif // CGP_TRACE_RECORDER_HH
