/**
 * @file
 * Trace-driven, cycle-level out-of-order core in the spirit of
 * SimpleScalar's sim-outorder, configured per paper Table 1:
 *
 *   fetch/decode/issue width 4; instruction-fetch queue and
 *   load/store queue of 16; 64 reservation stations; 4 integer
 *   adders + 2 multipliers; 4 CPU-side memory ports; 2-level
 *   2K-entry branch predictor.
 *
 * Fetch is fully modeled (per-line I-cache accesses, at most one
 * taken control transfer per cycle, queue backpressure, stall until
 * fill on an I-miss, redirect bubble on mispredicts) because the
 * phenomenon under study — instruction fetch stalls — lives there.
 * The back end models dependence chains with a register scoreboard
 * keyed by hashed architectural registers, FU contention, and D-cache
 * latency through the shared L2 FIFO.  Wrong-path fetch is
 * approximated by halting fetch from the mispredicted branch until
 * it resolves plus a redirect penalty (standard for trace-driven
 * simulation; see DESIGN.md §4.3).
 */

#ifndef CGP_CPU_CORE_HH
#define CGP_CPU_CORE_HH

#include <chrono>
#include <cstdint>
#include <limits>

#include "branch/predictor.hh"
#include "dprefetch/dprefetcher.hh"
#include "mem/hierarchy.hh"
#include "prefetch/prefetcher.hh"
#include "trace/dyninst.hh"
#include "trace/expand.hh"
#include "util/ring.hh"
#include "util/types.hh"

namespace cgp
{

struct CoreConfig
{
    unsigned fetchWidth = 4;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;

    unsigned fetchQueueSize = 16;
    unsigned lsqSize = 16;
    unsigned rsSize = 64;

    unsigned intAlus = 4;
    unsigned multipliers = 2;
    unsigned memPorts = 4;
    Cycle mulLatency = 3;

    /** Front-end refill bubble after a resolved mispredict. */
    Cycle redirectPenalty = 2;

    /** All I-fetches hit in one cycle (perf-Icache bars). */
    bool perfectICache = false;

    /**
     * Watchdog cycle budget (0 = none).  Exceeding this budget
     * throws TimeoutError: the run is classified as timed out, its
     * partial numbers are discarded, and the campaign engine records
     * the job as failed instead of persisting a truncated result.
     */
    std::uint64_t maxCycles = 0;

    /** Watchdog wall-clock budget in seconds (0 = none); same
     *  classification as maxCycles but against real time. */
    double maxWallSeconds = 0.0;

    BranchPredictorConfig branch;
};

class Core
{
  public:
    /**
     * @param stream Instruction source (already bound to a layout).
     * @param mem The Table 1 memory hierarchy.
     * @param prefetcher Active instruction prefetcher (may be null).
     * @param dprefetcher Active data prefetcher (may be null): fed
     *        demand accesses/misses from the load/store issue path
     *        and semantic hints carried by the instruction stream.
     */
    Core(InstructionExpander &stream, MemoryHierarchy &mem,
         InstrPrefetcher *prefetcher, const CoreConfig &config,
         DataPrefetcher *dprefetcher = nullptr);

    /** Run the trace to completion. */
    void run();

    /// @{ Incremental stepping (the multi-core server drives cores
    /// cycle by cycle; run() is beginRun, then stepCycle and skipIdle
    /// to completion).
    /** Arm the wall-clock watchdog; call once before stepCycle. */
    void beginRun();
    /**
     * Simulate one cycle (watchdog checks included).  A core whose
     * stream is merely dry burns the cycle idling; a core whose
     * stream has ended and whose pipeline has drained becomes
     * finished.  No-op once finished.  Does NOT finalize the memory
     * hierarchy — the owner of shared memory state does that once
     * every core is finished.
     */
    void stepCycle();
    /**
     * Jump over cycles in which nothing can happen.  Returns at once
     * unless the last stepCycle() did nothing (no commit, issue,
     * dispatch, consumed fetch or L1-I access).  Otherwise moves the
     * clock to one cycle before the next one at which anything can
     * change — a cache fill, the ROB head completing, an operand of
     * an unissued entry becoming ready, a stalled fetch resuming.  No
     * cycle at or after @p limit is skipped, nor any past the cycle
     * budget, whose check stays with stepCycle().  The skipped
     * cycles count into fetchIcacheStallCycles() and idleCycles() as
     * stepping them would; the wall-clock check runs once when the
     * skipped cycles cross its stride.  Single-stream
     * drivers only: a server core's stream may refill on any cycle.
     */
    void skipIdle(Cycle limit = std::numeric_limits<Cycle>::max());
    bool finished() const { return finished_; }
    /// @}

    /// @{ SMARTS-style sampling support (src/sample drives these).
    /**
     * Fast-forward functional warming: consume up to @p max_instrs
     * instructions from the stream without cycle-accurate timing.
     * With @p warm_state (the default) every consumed instruction
     * still updates the caches (via Cache::warmAccess), the branch
     * structures, the CGHC and the D-prefetch tables, with all
     * statistics counters frozen.  Warming trains and never issues:
     * the I-engine sees onCall/onReturn but not onFetchLine, and
     * the caches drop every prefetch.  The instruction peek() may hold
     * is warmed first; the rest come from InstructionExpander::warm,
     * so a run of plain work instructions costs one fetch-line check
     * per line it touches (warmFetchRun), a stack reference costs
     * its fetch line and its L1-D access (warmData), and everything
     * else goes through warmInst.
     * Without @p warm_state the stream merely advances (the
     * deliberately-unwarmed perturbation mode the validation suite
     * uses).  Consumed instructions count into warmedInstrs(), never
     * into committedInstrs().
     * @return instructions actually consumed (less than the budget
     *         only when the stream ran dry or ended).
     */
    std::uint64_t fastForward(std::uint64_t max_instrs,
                              bool warm_state = true);

    /** Stop fetching new instructions (drain before a jump). */
    void suspendFetch(bool suspend) { fetchSuspended_ = suspend; }

    /** Pipeline empty: safe to fast-forward / cut a checkpoint. */
    bool drained() const { return window_.empty(); }

    /** Jump the cycle clock over a fast-forwarded region. */
    void advanceClock(Cycle skip) { now_ += skip; }

    /** Instructions consumed by fastForward (not committed). */
    std::uint64_t warmedInstrs() const { return warmedInstrs_; }

    /** Cycles fetch spent waiting on I-cache fills. */
    std::uint64_t
    fetchIcacheStallCycles() const
    {
        return fetchIcacheStallCycles_;
    }

    /** Mutable branch unit (checkpoint save/restore). */
    BranchUnit &branchUnit() { return branch_; }

    /** Fetch-line tracking state for checkpoints. */
    Addr lastFetchLine() const { return lastFetchLine_; }
    void setLastFetchLine(Addr line) { lastFetchLine_ = line; }
    /// @}

    Cycle cycles() const { return now_; }
    std::uint64_t committedInstrs() const { return committed_; }
    std::uint64_t idleCycles() const { return idleCycles_; }
    double
    ipc() const
    {
        return now_ == 0 ? 0.0
                         : static_cast<double>(committed_)
                             / static_cast<double>(now_);
    }

    const BranchUnit &branchUnit() const { return branch_; }

  private:
    /**
     * One instruction in the window.  The back end reads only an
     * instruction's pc, kind and data address, so fetch keeps those,
     * not the whole DynInst, and hashes its register ids; fetch
     * writes every field but doneCycle, which issue writes.
     */
    struct Slot
    {
        Addr pc = invalidAddr;
        Addr memAddr = invalidAddr;
        Cycle doneCycle = 0;
        InstKind kind = InstKind::IntOp;
        std::uint8_t src1 = 0;
        std::uint8_t src2 = 0;
        std::uint8_t dest = 0;
        /** The mispredicted branch fetch waits on (at most one). */
        bool blocking = false;
    };

    void doCommit();
    void doIssue();
    void doDispatch();
    void doFetch();

    /** The wall-clock check of the watchdog. */
    void checkWatchdog() const;

    /** The earliest cycle after now_ at which a stage may act or a
     *  fill may land (now_ + 1 when that cannot be ruled out);
     *  skipIdle's bound. */
    Cycle nextEventCycle() const;

    /** Predict + prefetcher hooks for a fetched control transfer. */
    bool predictControl(const DynInst &inst);

    /// @{ Functional warming (fastForward).
    struct WarmHooks;
    /** Warm the L1-I line of a fetch at @p pc, on a line change
     *  only.  The prefetcher's fetch-line hook is not called: it
     *  only issues, and warming issues nothing. */
    void warmFetchLine(Addr pc);
    /** warmFetchLine for @p count instructions at consecutive pcs
     *  from @p first: once for the first and once per line boundary
     *  the run crosses. */
    void warmFetchRun(Addr first, std::uint64_t count);
    /** Warm the D-side for a load or store (@p write) of @p addr at
     *  @p pc: the L1-D line and the D-prefetch tables. */
    void warmData(Addr pc, Addr addr, bool write);
    /** Everything one instruction trains: fetch line, hint, branch
     *  structures and CGHC, L1-D and D-prefetch tables. */
    void warmInst(const DynInst &inst);
    /// @}

    /**
     * The next instruction of the stream, pulled into pending_ if
     * none is held; null when the stream is dry or ended.  The
     * pointee stays valid after consume() until the next peek().
     */
    const DynInst *peek();
    void consume();

    /// @{ The dependence model's hashed pseudo-registers come from
    /// (pc >> 2) times these constants, so the products of
    /// consecutive pcs step by the constant.
    static constexpr std::uint64_t srcHashMul = 0xc2b2ae3d27d4eb4full;
    static constexpr std::uint64_t destHashMul = 0x9e3779b97f4a7c15ull;
    /// @}

    /**
     * Write every field of a fetched @p slot but doneCycle: the
     * instruction of @p kind at @p pc, touching @p mem_addr, whose
     * register-hash products are @p src_hash and @p dest_hash.
     */
    static void
    fillSlot(Slot &slot, Addr pc, InstKind kind, Addr mem_addr,
             std::uint64_t src_hash, std::uint64_t dest_hash)
    {
        // Stores and every control transfer but a call write r0, the
        // always-ready sink.
        const bool writes = kind != InstKind::Store &&
            kind != InstKind::Jump && kind != InstKind::CondBranch &&
            kind != InstKind::Return;
        slot.pc = pc;
        slot.memAddr = mem_addr;
        slot.kind = kind;
        slot.blocking = false;
        slot.src1 = static_cast<std::uint8_t>((src_hash >> 11) % numRegs);
        slot.src2 = static_cast<std::uint8_t>((src_hash >> 23) % numRegs);
        slot.dest = writes
            ? static_cast<std::uint8_t>(1 + (dest_hash >> 7) % (numRegs - 1))
            : 0;
    }

    /** Fetched instructions not yet dispatched. */
    std::size_t queued() const { return window_.size() - robCount_; }

    InstructionExpander &stream_;
    MemoryHierarchy &mem_;
    InstrPrefetcher *prefetcher_;
    DataPrefetcher *dprefetcher_;
    CoreConfig config_;
    BranchUnit branch_;

    Cycle now_ = 0;

    /**
     * The instruction window, oldest first: window_[0, robCount_) is
     * the ROB, the rest the fetch queue.  Dispatch moves an
     * instruction from the queue into the ROB by moving the boundary;
     * commit pops the front.  The ROB holds at most rsSize entries
     * and the queue at most fetchQueueSize, so the ring never fills.
     */
    Ring<Slot> window_;
    unsigned robCount_ = 0;
    /** Bit i is set while window_[i] (in the ROB) has not issued. */
    std::uint64_t unissued_ = 0;
    unsigned lsqUsed_ = 0;

    DynInst pending_;
    bool hasPending_ = false;
    bool streamDone_ = false;
    bool finished_ = false;
    bool fetchSuspended_ = false;
    /** The last stepCycle() committed, issued, dispatched, consumed
     *  a fetched instruction or accessed the L1-I. */
    bool busy_ = true;
    std::uint64_t warmedInstrs_ = 0;
    bool wallBudget_ = false;
    std::chrono::steady_clock::time_point wallStart_{};

    Addr lastFetchLine_ = invalidAddr;
    Cycle fetchResumeCycle_ = 0;
    /** Fetch waits for a mispredicted branch in the window (the
     *  slot marked blocking) to resolve. */
    bool blocked_ = false;

    /** The wall-clock check runs on cycles that are multiples of
     *  watchdogMask + 1. */
    static constexpr Cycle watchdogMask = 0xFFF;

    static constexpr unsigned numRegs = 32;
    Cycle regReady_[numRegs] = {};

    std::uint64_t committed_ = 0;
    std::uint64_t fetchIcacheStallCycles_ = 0;
    std::uint64_t idleCycles_ = 0;
};

} // namespace cgp

#endif // CGP_CPU_CORE_HH
