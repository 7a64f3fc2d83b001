#include "cpu/core.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>

#include "util/logging.hh"
#include "util/watchdog.hh"

namespace cgp
{

Core::Core(InstructionExpander &stream, MemoryHierarchy &mem,
           InstrPrefetcher *prefetcher, const CoreConfig &config,
           DataPrefetcher *dprefetcher)
    : stream_(stream), mem_(mem), prefetcher_(prefetcher),
      dprefetcher_(dprefetcher), config_(config),
      branch_(config.branch),
      window_(config.fetchQueueSize + config.rsSize)
{
    // A zero width, queue or unit count would starve a stage: the
    // core would step (or skip) forever without committing.
    cgp_assert(config.fetchWidth > 0 && config.dispatchWidth > 0 &&
                   config.issueWidth > 0 && config.commitWidth > 0,
               "every stage width must be at least 1");
    cgp_assert(config.fetchQueueSize > 0 && config.lsqSize > 0 &&
                   config.rsSize > 0,
               "the fetch queue, LSQ and ROB need at least one entry");
    cgp_assert(config.intAlus > 0 && config.multipliers > 0 &&
                   config.memPorts > 0,
               "every functional-unit class needs at least one unit");
    cgp_assert(config.rsSize <= 64,
               "the unissued mask covers at most 64 ROB entries");
}

const DynInst *
Core::peek()
{
    if (!hasPending_) {
        if (streamDone_)
            return nullptr;
        if (!stream_.next(pending_)) {
            // A streaming source may be merely dry (another session
            // owns the next events); only a reported end is final.
            if (stream_.endOfStream())
                streamDone_ = true;
            return nullptr;
        }
        hasPending_ = true;
    }
    return &pending_;
}

void
Core::consume()
{
    cgp_assert(hasPending_, "consume without peek");
    hasPending_ = false;
}

void
Core::doCommit()
{
    unsigned done = 0;
    while (done < config_.commitWidth && robCount_ != 0) {
        const Slot &head = window_.front();
        if ((unissued_ & 1u) != 0 || head.doneCycle > now_)
            break;
        if (head.kind == InstKind::Load ||
            head.kind == InstKind::Store) {
            cgp_assert(lsqUsed_ > 0, "LSQ underflow");
            --lsqUsed_;
        }
        ++committed_;
        window_.pop_front();
        --robCount_;
        unissued_ >>= 1;
        ++done;
    }
    if (done != 0)
        busy_ = true;
}

void
Core::doIssue()
{
    unsigned issued = 0;
    unsigned alus = config_.intAlus;
    unsigned muls = config_.multipliers;
    unsigned ports = config_.memPorts;

    // Oldest first over the unissued entries only.
    for (std::uint64_t left = unissued_;
         left != 0 && issued < config_.issueWidth;
         left &= left - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(left));
        Slot &e = window_[i];

        const Cycle operands =
            std::max(regReady_[e.src1], regReady_[e.src2]);
        if (operands > now_)
            continue;

        Cycle done = 0;
        switch (e.kind) {
          case InstKind::IntOp:
          case InstKind::Jump:
          case InstKind::CondBranch:
          case InstKind::Call:
          case InstKind::Return:
            if (alus == 0)
                continue;
            --alus;
            done = now_ + 1;
            break;
          case InstKind::MulOp:
            if (muls == 0)
                continue;
            --muls;
            done = now_ + config_.mulLatency;
            break;
          case InstKind::Load: {
            if (ports == 0)
                continue;
            --ports;
            const auto res = mem_.l1d().access(
                e.memAddr, now_, AccessSource::DemandLoad,
                false);
            done = res.readyCycle;
            if (dprefetcher_ != nullptr) {
                const bool miss = !res.hit && !res.delayedHit;
                dprefetcher_->onAccess(e.pc, e.memAddr,
                                       false, miss, now_);
                if (miss) {
                    dprefetcher_->onMiss(e.pc, e.memAddr,
                                         now_);
                }
            }
            break;
          }
          case InstKind::Store: {
            if (ports == 0)
                continue;
            --ports;
            const auto res = mem_.l1d().access(
                e.memAddr, now_, AccessSource::DemandStore,
                true);
            done = now_ + 1; // retires via the store buffer
            if (dprefetcher_ != nullptr) {
                const bool miss = !res.hit && !res.delayedHit;
                dprefetcher_->onAccess(e.pc, e.memAddr,
                                       true, miss, now_);
                if (miss) {
                    dprefetcher_->onMiss(e.pc, e.memAddr,
                                         now_);
                }
            }
            break;
          }
        }

        unissued_ &= ~(std::uint64_t{1} << i);
        e.doneCycle = done;
        ++issued;

        if (e.dest != 0)
            regReady_[e.dest] = std::max(regReady_[e.dest], done);

        // A blocking mispredict resolves when it executes; fetch
        // restarts after the redirect bubble.
        if (e.blocking) {
            blocked_ = false;
            fetchResumeCycle_ = std::max(fetchResumeCycle_,
                                         done + config_.redirectPenalty);
        }
    }
    if (issued != 0)
        busy_ = true;
}

void
Core::doDispatch()
{
    // The fetched instruction is already in its slot: dispatch only
    // moves the ROB boundary over it.
    unsigned moved = 0;
    while (moved < config_.dispatchWidth && queued() != 0) {
        if (robCount_ >= config_.rsSize)
            break;
        const InstKind kind = window_[robCount_].kind;
        const bool is_mem =
            kind == InstKind::Load || kind == InstKind::Store;
        if (is_mem && lsqUsed_ >= config_.lsqSize)
            break;
        if (is_mem)
            ++lsqUsed_;
        unissued_ |= std::uint64_t{1} << robCount_;
        ++robCount_;
        ++moved;
    }
    if (moved != 0)
        busy_ = true;
}

bool
Core::predictControl(const DynInst &inst)
{
    BranchUnit::Prediction p;
    bool mispredicted = false;

    switch (inst.kind) {
      case InstKind::CondBranch: {
        p = branch_.predictConditional(inst.pc, inst.taken,
                                       inst.target);
        const bool dir_wrong = p.taken != inst.taken;
        const bool tgt_wrong = inst.taken && p.taken &&
            (!p.targetKnown || p.target != inst.target);
        mispredicted = dir_wrong || tgt_wrong;
        break;
      }
      case InstKind::Jump:
        p = branch_.predictJump(inst.pc, inst.target);
        mispredicted = !p.targetKnown || p.target != inst.target;
        break;
      case InstKind::Call:
        p = branch_.predictCall(inst.pc, inst.target, inst.funcStart);
        mispredicted = !p.targetKnown || p.target != inst.target;
        // CGP's call accesses use the *predicted* target (§3.2); no
        // prediction, no access.
        if (prefetcher_ != nullptr && p.targetKnown) {
            prefetcher_->onCall(p.target, inst.funcStart, now_);
        }
        break;
      case InstKind::Return:
        p = branch_.predictReturn(inst.pc, inst.target);
        mispredicted = !p.targetKnown || p.target != inst.target;
        // The modified RAS supplies the returnee's start (§3.2).
        if (prefetcher_ != nullptr) {
            prefetcher_->onReturn(p.callerFuncStart, inst.funcStart,
                                  now_);
        }
        break;
      default:
        cgp_panic("predictControl on non-control instruction");
    }
    return mispredicted;
}

void
Core::doFetch()
{
    // Sampling drain: checked before any stall accounting so a
    // suspended fetch stage leaves every counter untouched.
    if (fetchSuspended_)
        return;
    if (blocked_)
        return;
    if (now_ < fetchResumeCycle_) {
        ++fetchIcacheStallCycles_;
        return;
    }

    Cache &l1i = mem_.l1i();
    unsigned fetched = 0;
    while (fetched < config_.fetchWidth) {
        if (queued() >= config_.fetchQueueSize)
            return;

        // Plain work next in the stream is taken as a run, every
        // other instruction through peek().
        Addr pc;
        std::uint64_t run = hasPending_ ? 0 : stream_.workRun(pc);
        const DynInst *next = nullptr;
        if (run == 0) {
            next = peek();
            if (next == nullptr)
                return;
            pc = next->pc;
        }

        // Per-line I-cache access on line change; a run ends with
        // its line.
        if (!config_.perfectICache) {
            const Addr line = l1i.lineAlign(pc);
            if (line != lastFetchLine_) {
                const auto res = l1i.access(line, now_,
                                            AccessSource::DemandFetch,
                                            false);
                busy_ = true;
                lastFetchLine_ = line;
                if (prefetcher_ != nullptr)
                    prefetcher_->onFetchLine(line, now_);
                if (!res.hit) {
                    // Stall until the fill arrives; the instruction
                    // is taken when fetch resumes.
                    fetchResumeCycle_ = res.readyCycle;
                    ++fetchIcacheStallCycles_;
                    return;
                }
            }
            const Addr line_end = line + l1i.lineBytes() - 1;
            run = std::min<std::uint64_t>(run,
                                          (line_end - pc) / instrBytes + 1);
        }

        if (run != 0) {
            // Straight into window slots, as many as the width and
            // the queue's room take.
            const auto n = static_cast<unsigned>(std::min<std::uint64_t>(
                {run, config_.fetchWidth - fetched,
                 config_.fetchQueueSize - queued()}));
            std::uint64_t src_hash = (pc >> 2) * srcHashMul;
            std::uint64_t dest_hash = (pc >> 2) * destHashMul;
            for (unsigned i = 0; i < n; ++i) {
                Addr mem_addr;
                const InstKind kind = stream_.takeWork(mem_addr);
                fillSlot(window_.push_back(), pc, kind, mem_addr, src_hash,
                         dest_hash);
                pc += instrBytes;
                src_hash += srcHashMul;
                dest_hash += destHashMul;
            }
            fetched += n;
            busy_ = true;
            continue;
        }
        const DynInst &inst = *next;

        consume();
        busy_ = true;

        // Semantic hints ride the instruction stream and are
        // dispatched at fetch — well before the consuming load
        // issues, giving the prefetch its lead time.
        if (dprefetcher_ != nullptr && inst.hintAddr != invalidAddr) {
            dprefetcher_->onHint(
                static_cast<DataHintKind>(inst.hintKind),
                inst.hintAddr, now_);
        }

        Slot &slot = window_.push_back();
        fillSlot(slot, inst.pc, inst.kind, inst.memAddr,
                 (inst.pc >> 2) * srcHashMul, (inst.pc >> 2) * destHashMul);

        bool end_group = false;
        if (isControl(inst.kind)) {
            const bool mispredicted = predictControl(inst);
            if (mispredicted) {
                slot.blocking = true;
                blocked_ = true;
                end_group = true;
            } else if (inst.taken) {
                // Can't fetch past a predicted-taken transfer in the
                // same cycle.
                end_group = true;
            }
        }

        ++fetched;
        if (end_group)
            return;
    }
}

void
Core::beginRun()
{
    wallBudget_ = config_.maxWallSeconds > 0.0;
    wallStart_ = std::chrono::steady_clock::now();
}

void
Core::warmFetchLine(Addr pc)
{
    // Warming trains and never issues: the prefetcher's fetch-line
    // hook only issues, so it is not called here.
    const Addr line = mem_.l1i().lineAlign(pc);
    if (!config_.perfectICache && line != lastFetchLine_) {
        mem_.l1i().warmAccess(line, false);
        lastFetchLine_ = line;
    }
}

void
Core::warmFetchRun(Addr first, std::uint64_t count)
{
    if (config_.perfectICache)
        return;
    warmFetchLine(first);
    const Addr last = first + (count - 1) * instrBytes;
    const Addr line_bytes = mem_.l1i().lineBytes();
    for (Addr line = mem_.l1i().lineAlign(first) + line_bytes;
         line <= last; line += line_bytes)
        warmFetchLine(line);
}

void
Core::warmData(Addr pc, Addr addr, bool write)
{
    const bool miss = mem_.l1d().warmAccess(addr, write);
    if (dprefetcher_ != nullptr) {
        dprefetcher_->onAccess(pc, addr, write, miss, now_);
        if (miss)
            dprefetcher_->onMiss(pc, addr, now_);
    }
}

/** Routes InstructionExpander::warm output into the warm bodies. */
struct Core::WarmHooks final : WarmSink
{
    explicit WarmHooks(Core &core) : core_(core) {}

    /** A block's plain runs and stack references, in program order:
     *  the I-side and D-side accesses share the L2 and its LRU
     *  ticks. */
    void
    work(Addr pc, std::uint64_t done, std::uint64_t n,
         Addr frame) override
    {
        splitWork(
            pc, done, n, frame,
            [this](Addr first, std::uint64_t count) {
                core_.warmFetchRun(first, count);
            },
            [this](Addr ref_pc, Addr addr, bool write) {
                core_.warmFetchLine(ref_pc);
                core_.warmData(ref_pc, addr, write);
            });
    }

    void inst(const DynInst &inst) override { core_.warmInst(inst); }

    Core &core_;
};

void
Core::warmInst(const DynInst &inst)
{
    warmFetchLine(inst.pc);
    if (dprefetcher_ != nullptr && inst.hintAddr != invalidAddr) {
        dprefetcher_->onHint(static_cast<DataHintKind>(inst.hintKind),
                             inst.hintAddr, now_);
    }
    if (isControl(inst.kind)) {
        // Mispredictions cost nothing here; the branch structures
        // and the CGHC still train.
        (void)predictControl(inst);
    }
    if (inst.kind == InstKind::Load || inst.kind == InstKind::Store)
        warmData(inst.pc, inst.memAddr, inst.kind == InstKind::Store);
}

std::uint64_t
Core::fastForward(std::uint64_t max_instrs, bool warm_state)
{
    if (warm_state) {
        // Freeze every statistic while predictive state trains:
        // caches suppress prefetch issue, the branch unit and CGHC
        // stop counting, and demand traffic goes through the
        // counter-free warm path.
        mem_.setWarming(true);
        branch_.setWarming(true);
        if (prefetcher_ != nullptr)
            prefetcher_->setWarming(true);
    }

    std::uint64_t done = 0;
    // The instruction peek() may hold comes first.
    if (hasPending_ && max_instrs > 0) {
        consume();
        if (warm_state)
            warmInst(pending_);
        ++done;
    }
    if (done < max_instrs && !streamDone_) {
        if (warm_state) {
            WarmHooks hooks(*this);
            done += stream_.warm(max_instrs - done, hooks);
        } else {
            done += stream_.advance(max_instrs - done);
        }
        if (done < max_instrs && stream_.endOfStream())
            streamDone_ = true;
    }
    warmedInstrs_ += done;

    if (warm_state) {
        mem_.setWarming(false);
        branch_.setWarming(false);
        if (prefetcher_ != nullptr)
            prefetcher_->setWarming(false);
    }
    return done;
}

void
Core::stepCycle()
{
    if (finished_)
        return;
    // Watchdog: the cycle budget is deterministic (a livelocked
    // config times out at the same cycle everywhere); the
    // wall-clock budget is checked on a coarse stride so the hot
    // loop stays cheap.
    if (config_.maxCycles != 0 && now_ >= config_.maxCycles) {
        throw TimeoutError(
            "simulation exceeded cycle budget of " +
            std::to_string(config_.maxCycles) + " cycles");
    }
    if ((now_ & watchdogMask) == 0)
        checkWatchdog();
    ++now_;
    mem_.tick(now_);
    busy_ = false;

    const auto before = committed_;
    doCommit();
    doIssue();
    doDispatch();
    doFetch();

    // Demand priority on the shared L2 port: only after every
    // demand access of this cycle has claimed its slot may the
    // arbiter issue deferred prefetches into what is left.
    mem_.drainDeferred(now_);

    if (committed_ == before && window_.empty()) {
        // Nothing left anywhere and the stream has ended: done.
        // Otherwise (a dry source, or fetch stalled) the core waits.
        if (peek() == nullptr && streamDone_)
            finished_ = true;
        else
            ++idleCycles_;
    }
}

void
Core::checkWatchdog() const
{
    if (wallBudget_ &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart_)
                .count() > config_.maxWallSeconds) {
        throw TimeoutError("simulation exceeded wall-clock budget of " +
                           std::to_string(config_.maxWallSeconds) +
                           " seconds");
    }
}

Cycle
Core::nextEventCycle() const
{
    const Cycle soon = now_ + 1;
    const PrefetchArbiter *arbiter = mem_.arbiter();
    if (arbiter != nullptr && arbiter->queueSize() != 0)
        return soon;
    if (queued() != 0 && robCount_ < config_.rsSize) {
        const InstKind kind = window_[robCount_].kind;
        if ((kind != InstKind::Load && kind != InstKind::Store) ||
            lsqUsed_ < config_.lsqSize)
            return soon; // dispatch can move
    }

    // Fills land in the cycle they are ready: stopping there keeps
    // their LRU order.
    Cycle next = mem_.nextFillCycle();
    if (robCount_ != 0 && (unissued_ & 1u) == 0)
        next = std::min(next, window_.front().doneCycle);
    for (std::uint64_t left = unissued_; left != 0; left &= left - 1) {
        const Slot &e = window_[static_cast<unsigned>(
            std::countr_zero(left))];
        next = std::min(
            next, std::max(regReady_[e.src1], regReady_[e.src2]));
    }
    if (!fetchSuspended_ && !blocked_) {
        if (soon < fetchResumeCycle_)
            next = std::min(next, fetchResumeCycle_);
        else if (queued() < config_.fetchQueueSize &&
                 (hasPending_ || !streamDone_))
            return soon; // fetch is free
    }
    if (window_.empty() && !hasPending_)
        return soon;
    return std::max(next, soon);
}

void
Core::skipIdle(Cycle limit)
{
    if (busy_ || finished_)
        return;
    Cycle stop = std::min(nextEventCycle(), limit);
    if (config_.maxCycles != 0)
        stop = std::min<Cycle>(stop, config_.maxCycles + 1);
    // Nothing bounds the wait: leave it to stepCycle.
    if (stop == std::numeric_limits<Cycle>::max() || stop <= now_ + 1)
        return;

    // Cycles now_ + 1 .. stop - 1 would each have started (at
    // now_ .. stop - 2) with the checks stepCycle makes; the stride
    // check runs once if any of those starts falls on the stride.
    const Cycle last_start = stop - 2;
    if ((now_ & watchdogMask) == 0 || (now_ | watchdogMask) < last_start)
        checkWatchdog();

    // stop is at most fetchResumeCycle_ when fetch is stalled, so
    // fetch stalls in every skipped cycle or in none.
    const bool stalled = !fetchSuspended_ &&
        !blocked_ && now_ + 1 < fetchResumeCycle_;
    const Cycle skipped = stop - 1 - now_;
    now_ = stop - 1;
    if (stalled)
        fetchIcacheStallCycles_ += skipped;
    if (window_.empty())
        idleCycles_ += skipped;
}

void
Core::run()
{
    beginRun();
    while (!finished_) {
        stepCycle();
        skipIdle();
    }
    mem_.finalize();
}

} // namespace cgp
