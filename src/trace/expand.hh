/**
 * @file
 * InstructionExpander: replays a recorded trace against a CodeImage,
 * producing the dynamic instruction stream the CPU model consumes.
 *
 * The same trace expanded against the O5 image and the OM image
 * yields the two "binaries" the paper compares: identical dynamic
 * behaviour, different fetch-address streams (block adjacency decides
 * where jump instructions are needed, exactly like a linker-time
 * reorder changes taken-branch counts).
 *
 * The expander can simultaneously fill an ExecutionProfile — this is
 * the "profile run of instrumented code" OM requires (paper §5.1).
 */

#ifndef CGP_TRACE_EXPAND_HH
#define CGP_TRACE_EXPAND_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include <memory>

#include "codegen/layout.hh"
#include "codegen/profile.hh"
#include "codegen/registry.hh"
#include "trace/dyninst.hh"
#include "trace/events.hh"
#include "trace/source.hh"
#include "util/types.hh"

namespace cgp
{

struct ExpanderConfig
{
    /**
     * Dynamic-instruction scale applied to Work payloads.  The paper
     * reports that OM's link-time re-optimizations cut the dynamic
     * instruction count by 12% relative to O5; the harness sets 0.88
     * for OM images.
     */
    double instrScale = 1.0;
};

/**
 * Receives the instructions InstructionExpander::warm hands out: the
 * functional-warming view of the stream.
 */
class WarmSink
{
  public:
    virtual ~WarmSink() = default;

    /**
     * One block's share of a work burst, with no hint riding on it:
     * the current thread's work instructions @p done + 1 to
     * @p done + @p n, at consecutive pcs from @p pc, in the stack
     * frame based at @p frame.  splitWork() turns the call into the
     * plain runs and stack references it stands for.
     */
    virtual void work(Addr pc, std::uint64_t done, std::uint64_t n,
                      Addr frame) = 0;

    /** Any other instruction, whole. */
    virtual void inst(const DynInst &inst) = 0;
};

class InstructionExpander
{
  public:
    /// @{ The work mix: every k-th work instruction is a stack-local
    /// load, else a stack-local store, else a multiply.
    static constexpr unsigned stackLoadEvery = 5;
    static constexpr unsigned stackStoreEvery = 17;
    static constexpr unsigned mulEvery = 23;
    /// @}

    /** Address the @p k-th work instruction of a thread touches in
     *  the stack frame based at @p frame when it is a stack load
     *  (@p load) or store. */
    static constexpr Addr
    stackSlot(Addr frame, std::uint64_t k, bool load)
    {
        return frame + (load ? k % 16 : k % 8) * 8;
    }

    InstructionExpander(const FunctionRegistry &registry,
                        const CodeImage &image,
                        const TraceBuffer &trace,
                        ExpanderConfig config = {});

    /** Streaming variant: pull events from @p source (not owned).
     *  The source may report Dry, in which case next() returns false
     *  without endOfStream() becoming true — the caller retries once
     *  the source has more to give. */
    InstructionExpander(const FunctionRegistry &registry,
                        const CodeImage &image,
                        TraceSource &source,
                        ExpanderConfig config = {});

    /** Holds a pointer into its own thread table: not copyable or
     *  movable (construct in place or behind a unique_ptr). */
    InstructionExpander(const InstructionExpander &) = delete;
    InstructionExpander &operator=(const InstructionExpander &) = delete;
    InstructionExpander(InstructionExpander &&) = delete;
    InstructionExpander &operator=(InstructionExpander &&) = delete;

    /** Attach a profile to be filled during expansion (may be null). */
    void setProfile(ExecutionProfile *profile) { profile_ = profile; }

    /**
     * Produce the next dynamic instruction.
     * @return false when the trace is exhausted — or, for a streaming
     *         source, when it is merely dry; check endOfStream() to
     *         tell the two apart.
     */
    bool next(DynInst &out);

    /** True once the underlying source reported End. */
    bool endOfStream() const { return ended_; }

    /**
     * How many instructions next() would hand out next as plain work
     * of the current burst, at consecutive pcs from @p pc (set when
     * the count is not 0): nothing queued, no hint pending, work
     * left and no block cross due.  takeWork() hands them out.
     */
    std::uint64_t
    workRun(Addr &pc) const
    {
        if (workLeft_ == 0 || readIdx_ != ready_.size() ||
            !pendingHints_.empty() || curState_->stack.empty())
            return 0;
        const Activation &act = curState_->stack.back();
        if (act.offset >= act.usable)
            return 0;
        pc = curPc(act);
        return std::min<std::uint64_t>(workLeft_, act.usable - act.offset);
    }

    /**
     * Hand out the next instruction of a run workRun() reported,
     * ticking every counter and countdown next() would: its kind,
     * with the stack slot a load or store touches in @p memAddr
     * (invalidAddr for the others).
     */
    InstKind
    takeWork(Addr &memAddr)
    {
        ThreadState &ts = *curState_;
        ++ts.workCounter;
        // The k-th work instruction of a thread is a stack load when
        // k is a multiple of stackLoadEvery, else a stack store when
        // it is one of stackStoreEvery, else a multiply when it is
        // one of mulEvery; every countdown ticks on every
        // instruction.
        const bool load = countDown(ts.loadIn, stackLoadEvery);
        const bool store = countDown(ts.storeIn, stackStoreEvery);
        const bool mul = countDown(ts.mulIn, mulEvery);
        ++emitted_;
        ++ts.stack.back().offset;
        --workLeft_;
        loads_ += load;
        stores_ += store && !load;
        memAddr = load || store
            ? stackSlot(frameOf(ts), ts.workCounter, load)
            : invalidAddr;
        return workKind[load | store << 1 | mul << 2];
    }

    /**
     * Functional-warming expansion: hand the next @p n instructions
     * to @p sink, leaving the expander in exactly the state @p n
     * calls of next() would leave.  Work with no hint riding on it
     * and nothing queued ahead of it reaches sink.work() once per
     * block, with no DynInst built; every other instruction reaches
     * sink.inst() whole.
     * @return instructions handed out (short only when the trace
     *         ended or a streaming source ran dry).
     */
    std::uint64_t warm(std::uint64_t n, WarmSink &sink);

    /**
     * warm() without a sink: skip @p n instructions.  Instructions
     * that fit in the budget whole are only counted.  Expansion is
     * deterministic, so advancing a fresh expander by the number of
     * instructions a warm-up consumed reconstructs its internal
     * state exactly: the replay half of warm-state checkpoint
     * restore, and with a profile attached the OM profile run.
     * @return instructions actually advanced.
     */
    std::uint64_t advance(std::uint64_t n);

    /// @{ Expansion statistics (valid incrementally).
    std::uint64_t emittedInstrs() const { return emitted_; }
    std::uint64_t emittedCalls() const { return calls_; }
    std::uint64_t emittedBranches() const { return branches_; }
    std::uint64_t emittedJumps() const { return jumps_; }
    std::uint64_t emittedLoads() const { return loads_; }
    std::uint64_t emittedStores() const { return stores_; }

    /** Mean instructions between successive calls (paper §5.4: ~43). */
    double
    instrsPerCall() const
    {
        return calls_ == 0
            ? 0.0
            : static_cast<double>(emitted_)
                / static_cast<double>(calls_);
    }
    /// @}

  private:
    using WalkStep = CodeImage::WalkStep;

    /** One live function invocation on a thread's stack. */
    struct Activation
    {
        /** image_.funcStart(fid), cached at the call. */
        Addr funcBase;
        /** walk[walkIdx].addr, cached by setupBlock. */
        Addr blockBase;
        /** image_.walk(fid), cached at the call. */
        const WalkStep *walk;
        std::uint32_t walkLen;
        FunctionId fid;
        std::uint32_t walkIdx;   ///< position in the hot walk
        std::uint16_t offset;    ///< instructions emitted in block
        std::uint16_t usable;    ///< slots before a cross is needed
        bool needJump;           ///< cross requires a jump instr
        std::uint8_t decisionRR; ///< round-robin decision site
        /**
         * Per-invocation path diversity: after the entry block, the
         * walk dispatches to this hot-walk position (successive
         * invocations exercise different parts of the body, the way
         * argument-dependent control flow does in real code).  ~0u
         * means no pending dispatch.
         */
        std::uint32_t pendingDispatch;

        /** Phase-stable path shape: skip parameters + counter. */
        std::uint32_t pathMix;
        std::uint16_t crossCount;
        /** (crossCount + 1) % jumpPeriod(): nextWalkIdx's test for a
         *  mid-body jump, stepped by advanceWalk. */
        std::uint8_t jumpPhase;
        /** nextWalkIdx() and the address of the block it names,
         *  cached by setupBlock (every change to what nextWalkIdx
         *  reads is followed by one). */
        std::uint32_t nextWalk;
        Addr nextAddr;
    };

    struct ThreadState
    {
        std::vector<Activation> stack;
        Addr stackBase = 0;
        /** Work instructions emitted (picks stack-slot offsets). */
        std::uint64_t workCounter = 0;
        /// @{ Work instructions until the next stack load, stack
        /// store and multiply (reset to the ExpanderConfig periods).
        std::uint32_t loadIn = 0;
        std::uint32_t storeIn = 0;
        std::uint32_t mulIn = 0;
        /// @}
    };

    /** Count one work instruction down; true (and re-armed) when it
     *  is the period's last. */
    static bool
    countDown(std::uint32_t &left, unsigned period)
    {
        const bool last = left == 1;
        left = last ? period : left - 1;
        return last;
    }

    /** A work instruction's kind by its countdowns that ran out:
     *  load (bit 0), store (bit 1), multiply (bit 2). */
    static constexpr InstKind workKind[8] = {
        InstKind::IntOp, InstKind::Load, InstKind::Store, InstKind::Load,
        InstKind::MulOp, InstKind::Load, InstKind::Store, InstKind::Load};

    /** Queue one more instruction of the current Work burst, after
     *  the block cross (and its jump) it may need. */
    void emitWorkInstr();

    /** takeWork() into @p out, with the current activation's pc and
     *  function. */
    void makeWorkInst(DynInst &out);

    /**
     * The one walk behind warm() (@p Warm, handing out to @p sink)
     * and advance() (no sink).  Queued instructions leave first; a
     * pending hint makes the next instruction go through next().
     * A Work burst goes to walkWork().  An event's instructions are
     * queued, or without a sink only counted when they all fit in
     * the budget.
     */
    template <bool Warm> std::uint64_t walk(std::uint64_t n, WarmSink *sink);

    /**
     * Walk the current Work burst up to @p budget instructions, a
     * block at a time, and move the counters by quotients of the
     * work counter.  With @p Warm each block's work goes to
     * sink->work() and each cross jump to sink->inst().  A cross
     * jump the budget would cut off from its work instruction is
     * queued with it, as next() queues them.  The caller guarantees
     * nothing is queued and, with @p Warm, no hint is pending.
     */
    template <bool Warm> void walkWork(std::uint64_t budget, WarmSink *sink);

    /**
     * Process one trace event; false when the source is dry or has
     * ended.  With @p Emit false the event's instructions are only
     * counted, never built or queued: the caller guarantees they all
     * fit in its budget.
     */
    template <bool Emit> bool pullEvent();

    /** Queue the instruction @p make builds, or with @p Emit false
     *  only count one of @p kind. */
    template <bool Emit, typename Make>
    void emit(InstKind kind, Make &&make);

    /** next() without the hint: the ready queue's head, else work
     *  built in @p out, else what the next events queue. */
    bool take(DynInst &out);

    /** Make @p id the current thread, creating its state on first
     *  use. */
    void switchThread(std::uint64_t id);

    template <bool Emit> void processCall(FunctionId callee);
    template <bool Emit> void processReturn();
    template <bool Emit> void processBranch(bool taken);
    template <bool Emit> void processMem(EventKind kind, Addr addr);

    /** Base of @p ts's current stack frame. */
    static Addr
    frameOf(const ThreadState &ts)
    {
        return ts.stackBase + ts.stack.size() * 128;
    }

    /** Address of the next instruction slot of @p act. */
    static Addr
    curPc(const Activation &act)
    {
        return act.blockBase + static_cast<Addr>(act.offset) * instrBytes;
    }

    /** Emit the cross jump / walk advance when a block is exhausted. */
    template <bool Emit> void crossIfNeeded(Activation &act);

    /** The jump that leaves @p act's exhausted block. */
    DynInst crossJump(const Activation &act) const;

    /** The walk position entered after the current block. */
    std::uint32_t nextWalkIdx(const Activation &act) const;

    /** Blocks between @p act's mid-body jumps: 5 to 8. */
    static std::uint8_t jumpPeriod(const Activation &act);

    /** The walk position after the current one, wrapping. */
    static std::uint32_t successorIdx(const Activation &act);

    /** The walk position @p act's pending path dispatch names. */
    static std::uint32_t dispatchIdx(const Activation &act);

    /** Advance the hot walk (recording the profile edge). */
    void advanceWalk(Activation &act);

    /** Initialize block-position fields after entering a block. */
    void setupBlock(Activation &act);

    /** Queue a fully-formed instruction. */
    void push(const DynInst &inst);

    /** Count one emitted instruction of @p kind in the statistics. */
    void count(InstKind kind);

    /** Fill common fields from the current activation. */
    DynInst makeInst(const Activation &act, InstKind kind) const;

    ThreadState &thread() { return *curState_; }
    Activation *top();

    const FunctionRegistry &registry_;
    const CodeImage &image_;
    /** Owns the buffer adapter for the legacy constructor. */
    std::unique_ptr<BufferTraceSource> ownedSource_;
    TraceSource *source_;
    ExpanderConfig config_;
    ExecutionProfile *profile_ = nullptr;

    bool ended_ = false;
    std::uint64_t curThread_ = 0;
    /** Per-function invocation counters driving path dispatch,
     *  indexed by FunctionId (grown on demand). */
    std::vector<std::uint32_t> invocations_;
    std::unordered_map<std::uint64_t, ThreadState> threads_;
    /** threads_[curThread_]; node pointers survive rehashing. */
    ThreadState *curState_ = nullptr;
    /** Expanded instructions not yet handed out: ready_[readIdx_..]. */
    std::vector<DynInst> ready_;
    std::size_t readIdx_ = 0;
    /** Hint payloads awaiting an instruction to ride on. */
    std::deque<std::uint64_t> pendingHints_;
    std::uint64_t workLeft_ = 0;

    std::uint64_t emitted_ = 0;
    std::uint64_t calls_ = 0;
    std::uint64_t branches_ = 0;
    std::uint64_t jumps_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;

    /** Sequential prologue blocks before the path dispatch. */
    static constexpr std::uint32_t dispatchAfterBlocks = 3;

    /** Synthetic data segment for thread stacks. */
    static constexpr Addr stackSegmentBase = 0x7f00'0000;
    static constexpr Addr stackSegmentStride = 0x10'0000;
};

/**
 * Split what one WarmSink::work() call stands for into program order:
 * @p run(first, count) for each run of plain work instructions
 * (IntOp or MulOp) at consecutive pcs from @p first, and
 * @p ref(pc, addr, write) for each stack-local load (@p write false)
 * or store between them.  The k-th work instruction of a thread is a
 * load when k is a multiple of stackLoadEvery, else a store when it
 * is one of stackStoreEvery, as InstructionExpander builds it.
 */
template <typename Run, typename Ref>
inline void
splitWork(Addr pc, std::uint64_t done, std::uint64_t n, Addr frame,
          Run &&run, Ref &&ref)
{
    constexpr unsigned loadEvery = InstructionExpander::stackLoadEvery;
    constexpr unsigned storeEvery = InstructionExpander::stackStoreEvery;
    const std::uint64_t end = done + n;
    // The next stack load and store: the first multiples of their
    // periods past the done-th work instruction.
    std::uint64_t load = (done / loadEvery + 1) * loadEvery;
    std::uint64_t store = (done / storeEvery + 1) * storeEvery;
    for (;;) {
        const std::uint64_t next = std::min(load, store);
        const std::uint64_t plain = std::min(next - 1, end) - done;
        if (plain > 0)
            run(pc, plain);
        if (next > end)
            return;
        pc += plain * instrBytes;
        ref(pc, InstructionExpander::stackSlot(frame, next, next == load),
            next != load);
        pc += instrBytes;
        done = next;
        if (next == load)
            load += loadEvery;
        if (next == store)
            store += storeEvery;
    }
}

} // namespace cgp

#endif // CGP_TRACE_EXPAND_HH
