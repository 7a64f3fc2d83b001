#include "trace/expand.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace cgp
{

namespace
{

ExpanderConfig
checked(const ExpanderConfig &config)
{
    cgp_assert(config.instrScale > 0.0, "instrScale must be positive");
    return config;
}

/** The countdown @p n successive countDown() calls would leave. */
std::uint32_t
countedDown(std::uint32_t left, std::uint64_t n, unsigned period)
{
    // A warm burst is rarely longer than a period: skip the
    // division then.
    const auto step =
        static_cast<std::uint32_t>(n < period ? n : n % period);
    return left > step ? left - step : left + period - step;
}

/** How many of the work instructions after the @p done-th, up to
 *  the (done + n)-th, are multiples of @p period. */
std::uint64_t
multiplesIn(std::uint64_t done, std::uint64_t n, unsigned period)
{
    return (done + n) / period - done / period;
}

} // namespace

InstructionExpander::InstructionExpander(const FunctionRegistry &registry,
                                         const CodeImage &image,
                                         const TraceBuffer &trace,
                                         ExpanderConfig config)
    : registry_(registry), image_(image),
      ownedSource_(std::make_unique<BufferTraceSource>(trace)),
      source_(ownedSource_.get()), config_(checked(config))
{
    switchThread(0);
}

InstructionExpander::InstructionExpander(const FunctionRegistry &registry,
                                         const CodeImage &image,
                                         TraceSource &source,
                                         ExpanderConfig config)
    : registry_(registry), image_(image), source_(&source),
      config_(checked(config))
{
    switchThread(0);
}

void
InstructionExpander::switchThread(std::uint64_t id)
{
    curThread_ = id;
    const auto [it, inserted] = threads_.try_emplace(id);
    ThreadState &ts = it->second;
    if (inserted) {
        ts.stackBase = stackSegmentBase + id * stackSegmentStride;
        ts.loadIn = stackLoadEvery;
        ts.storeIn = stackStoreEvery;
        ts.mulIn = mulEvery;
    }
    curState_ = &ts;
}

InstructionExpander::Activation *
InstructionExpander::top()
{
    auto &st = thread().stack;
    return st.empty() ? nullptr : &st.back();
}

DynInst
InstructionExpander::makeInst(const Activation &act, InstKind kind) const
{
    DynInst inst;
    inst.pc = curPc(act);
    inst.kind = kind;
    inst.func = act.fid;
    inst.funcStart = act.funcBase;
    return inst;
}

void
InstructionExpander::push(const DynInst &inst)
{
    ready_.push_back(inst);
    count(inst.kind);
}

void
InstructionExpander::count(InstKind kind)
{
    ++emitted_;
    switch (kind) {
      case InstKind::Call:
        ++calls_;
        break;
      case InstKind::CondBranch:
        ++branches_;
        break;
      case InstKind::Jump:
        ++jumps_;
        break;
      case InstKind::Load:
        ++loads_;
        break;
      case InstKind::Store:
        ++stores_;
        break;
      default:
        break;
    }
}

std::uint32_t
InstructionExpander::successorIdx(const Activation &act)
{
    return act.walkIdx + 1 == act.walkLen ? 0 : act.walkIdx + 1;
}

std::uint32_t
InstructionExpander::dispatchIdx(const Activation &act)
{
    const std::uint32_t idx = act.pendingDispatch % act.walkLen;
    return idx == 0 ? 1 % act.walkLen : idx;
}

std::uint8_t
InstructionExpander::jumpPeriod(const Activation &act)
{
    return static_cast<std::uint8_t>(5 + (act.pathMix & 3));
}

std::uint32_t
InstructionExpander::nextWalkIdx(const Activation &act) const
{
    const std::uint32_t walk_len = act.walkLen;
    const std::uint32_t cc = act.crossCount + 1u;
    if (act.pendingDispatch != ~0u && cc >= dispatchAfterBlocks)
        return dispatchIdx(act);
    if (act.pendingDispatch == ~0u && walk_len >= 6 &&
        act.jumpPhase == 0) {
        // Mid-body control flow: the path occasionally jumps to
        // another region of the body (if/else ladders, switch
        // dispatch), bounding the sequential run lengths the NL
        // prefetcher can exploit (the paper's ~43-instruction runs).
        const std::uint32_t delta =
            2 + ((act.pathMix >> 8) % (walk_len - 2));
        return (act.walkIdx + delta) % walk_len;
    }
    return successorIdx(act);
}

void
InstructionExpander::setupBlock(Activation &act)
{
    const WalkStep &b = act.walk[act.walkIdx];
    act.offset = 0;
    act.blockBase = b.addr;

    // Where does the walk go after this block, and is that block the
    // fall-through neighbour in this layout?
    act.nextWalk = nextWalkIdx(act);
    act.nextAddr = act.walk[act.nextWalk].addr;
    const bool adjacent =
        act.nextAddr == b.addr + static_cast<Addr>(b.instrs) * instrBytes;
    act.needJump = !adjacent;
    act.usable = adjacent
        ? b.instrs
        : static_cast<std::uint16_t>(b.instrs - 1);
}

void
InstructionExpander::advanceWalk(Activation &act)
{
    const std::uint16_t from = act.walk[act.walkIdx].block;
    act.walkIdx = act.nextWalk;
    ++act.crossCount;
    // The phase follows crossCount + 1 around its period and starts
    // over at 1 where the 16-bit count wraps to 0.
    ++act.jumpPhase;
    if (act.crossCount == 0)
        act.jumpPhase = 1;
    else if (act.jumpPhase == jumpPeriod(act))
        act.jumpPhase = 0;
    if (act.crossCount >= dispatchAfterBlocks)
        act.pendingDispatch = ~0u;
    if (profile_ != nullptr)
        profile_->onBlockEdge(act.fid, from,
                              act.walk[act.walkIdx].block);
    setupBlock(act);
}

template <bool Emit, typename Make>
void
InstructionExpander::emit(InstKind kind, Make &&make)
{
    if constexpr (Emit)
        push(make());
    else
        count(kind);
}

template <bool Emit>
void
InstructionExpander::crossIfNeeded(Activation &act)
{
    if (act.offset < act.usable)
        return;

    if (act.needJump)
        emit<Emit>(InstKind::Jump, [&] { return crossJump(act); });
    advanceWalk(act);
}

DynInst
InstructionExpander::crossJump(const Activation &act) const
{
    DynInst jmp = makeInst(act, InstKind::Jump);
    jmp.taken = true;
    jmp.target = act.nextAddr;
    return jmp;
}

void
InstructionExpander::makeWorkInst(DynInst &out)
{
    const Activation &act = *top();
    out = makeInst(act, InstKind::IntOp);
    out.kind = takeWork(out.memAddr);
}

void
InstructionExpander::emitWorkInstr()
{
    Activation *act = top();
    cgp_assert(act != nullptr, "work outside any function");
    crossIfNeeded<true>(*act);
    makeWorkInst(ready_.emplace_back());
}

template <bool Emit>
void
InstructionExpander::processCall(FunctionId callee)
{
    cgp_assert(callee < registry_.size(), "call to unknown function");

    auto &ts = thread();
    const Addr target = image_.funcStart(callee);
    FunctionId caller = invalidFunctionId;
    if (Activation *act = top(); act != nullptr) {
        crossIfNeeded<Emit>(*act);
        caller = act->fid;
        emit<Emit>(InstKind::Call, [&] {
            DynInst call = makeInst(*act, InstKind::Call);
            call.taken = true;
            call.target = target;
            call.otherFunc = callee;
            call.otherFuncStart = target;
            return call;
        });
        ++act->offset;
    } else {
        // Root call: synthesize a per-thread call site outside the
        // text segment ("main" is untraced).
        emit<Emit>(InstKind::Call, [&] {
            DynInst call;
            call.pc = image_.textLimit() + 64 + curThread_ * 256;
            call.kind = InstKind::Call;
            call.taken = true;
            call.target = target;
            call.func = invalidFunctionId;
            call.funcStart = invalidAddr;
            call.otherFunc = callee;
            call.otherFuncStart = target;
            return call;
        });
    }

    const std::span<const WalkStep> walk = image_.walk(callee);
    cgp_assert(!walk.empty(), "function with empty walk");
    Activation &act = ts.stack.emplace_back();
    act.funcBase = target;
    act.walk = walk.data();
    act.walkLen = static_cast<std::uint32_t>(walk.size());
    act.fid = callee;
    act.walkIdx = 0;
    act.decisionRR = 0;
    // Argument-dependent path diversity: after a short sequential
    // prologue (so entry-region prefetches are useful, as in real
    // code), invocations branch to a body region.  The region is
    // stable over a *phase* of invocations — consecutive iterations
    // of a query's tuple loop take the same path (and hit in the
    // I-cache once warm), while revisits after other work has run
    // take a different path, as data-dependent control flow does in
    // real code.  Short bodies always fall through.
    if (callee >= invocations_.size())
        invocations_.resize(static_cast<std::size_t>(callee) + 1, 0);
    const std::uint32_t inv = invocations_[callee]++;
    // Mixed path volatility: some functions are argument-stable
    // (long phases), others flip paths often.
    const std::uint32_t phase = inv >> (2 + callee % 4);
    const std::uint32_t mix = (callee * 2654435761u) ^
        (phase * 0x9e3779b9u);
    act.pathMix = mix;
    act.crossCount = 0;
    act.jumpPhase = 1;
    act.pendingDispatch = act.walkLen >= 4 ? (mix >> 3) * 3 + 1 : ~0u;
    setupBlock(act);

    if (profile_ != nullptr) {
        if (caller != invalidFunctionId)
            profile_->onCall(caller, callee);
        profile_->onEntry(callee);
    }
}

template <bool Emit>
void
InstructionExpander::processReturn()
{
    auto &ts = thread();
    cgp_assert(!ts.stack.empty(), "return with empty stack");

    Activation &act = ts.stack.back();
    crossIfNeeded<Emit>(act);
    emit<Emit>(InstKind::Return, [&] {
        DynInst ret = makeInst(act, InstKind::Return);
        ret.taken = true;
        if (ts.stack.size() > 1) {
            const Activation &caller = ts.stack[ts.stack.size() - 2];
            ret.target = curPc(caller);
            ret.otherFunc = caller.fid;
            ret.otherFuncStart = caller.funcBase;
        } else {
            ret.target = image_.textLimit() + 64 + curThread_ * 256
                + instrBytes;
            ret.otherFunc = invalidFunctionId;
            ret.otherFuncStart = invalidAddr;
        }
        return ret;
    });
    ts.stack.pop_back();
}

template <bool Emit>
void
InstructionExpander::processBranch(bool taken)
{
    Activation *actp = top();
    cgp_assert(actp != nullptr, "branch outside any function");
    Activation &act = *actp;
    crossIfNeeded<Emit>(act);

    const Function &f = registry_.function(act.fid);

    if (f.decisions.empty()) {
        // Function declared without decision sites: a plain biased
        // branch toward the next walk block.
        emit<Emit>(InstKind::CondBranch, [&] {
            DynInst br = makeInst(act, InstKind::CondBranch);
            br.taken = taken;
            br.target = act.walk[successorIdx(act)].addr;
            return br;
        });
        if (taken)
            advanceWalk(act);
        else
            ++act.offset;
        return;
    }

    const std::uint16_t site_idx =
        static_cast<std::uint16_t>(act.decisionRR % f.decisions.size());
    act.decisionRR = static_cast<std::uint8_t>(act.decisionRR + 1);
    const DecisionSite &site = f.decisions[site_idx];
    const Addr arm_base = image_.blockAddr(act.fid, site.arm);

    emit<Emit>(InstKind::CondBranch, [&] {
        DynInst br = makeInst(act, InstKind::CondBranch);
        br.taken = taken;
        br.target = arm_base;
        return br;
    });

    if (!taken) {
        ++act.offset;
        return;
    }

    // Execute the arm block, then rejoin the walk at the next hot
    // block (jumping back if the layout separates them).
    if (profile_ != nullptr)
        profile_->onBlockEdge(act.fid, act.walk[act.walkIdx].block,
                              site.arm);

    const std::uint32_t resume_walk = act.pendingDispatch != ~0u
        ? dispatchIdx(act)
        : successorIdx(act);
    act.pendingDispatch = ~0u;
    const WalkStep &resume = act.walk[resume_walk];

    const BasicBlock &arm = f.blocks[site.arm];
    const Addr arm_end = arm_base + arm.sizeBytes();
    const bool fallsThrough = resume.addr == arm_end;
    if constexpr (Emit) {
        for (std::uint16_t i = 0; i + 1 < arm.instrs; ++i) {
            DynInst inst;
            inst.pc = arm_base + static_cast<Addr>(i) * instrBytes;
            inst.kind = InstKind::IntOp;
            inst.func = act.fid;
            inst.funcStart = act.funcBase;
            push(inst);
        }
    } else {
        emitted_ += arm.instrs - 1;
    }
    emit<Emit>(fallsThrough ? InstKind::IntOp : InstKind::Jump, [&] {
        DynInst tail;
        tail.pc = arm_end - instrBytes;
        tail.func = act.fid;
        tail.funcStart = act.funcBase;
        if (fallsThrough) {
            tail.kind = InstKind::IntOp;
        } else {
            tail.kind = InstKind::Jump;
            tail.taken = true;
            tail.target = resume.addr;
        }
        return tail;
    });

    if (profile_ != nullptr)
        profile_->onBlockEdge(act.fid, site.arm, resume.block);

    act.walkIdx = resume_walk;
    setupBlock(act);
}

template <bool Emit>
void
InstructionExpander::processMem(EventKind kind, Addr addr)
{
    Activation *actp = top();
    cgp_assert(actp != nullptr, "memory access outside any function");
    crossIfNeeded<Emit>(*actp);

    const InstKind ikind =
        kind == EventKind::Load ? InstKind::Load : InstKind::Store;
    emit<Emit>(ikind, [&] {
        DynInst inst = makeInst(*actp, ikind);
        inst.memAddr = addr;
        return inst;
    });
    ++actp->offset;
}

template <bool Emit>
bool
InstructionExpander::pullEvent()
{
    if (ended_)
        return false;

    TraceEvent e = TraceEvent::make(EventKind::Work, 0);
    switch (source_->next(e)) {
      case TraceSource::Pull::End:
        ended_ = true;
        return false;
      case TraceSource::Pull::Dry:
        return false;
      case TraceSource::Pull::Event:
        break;
    }
    switch (e.kind()) {
      case EventKind::Call:
        processCall<Emit>(static_cast<FunctionId>(e.payload()));
        break;
      case EventKind::Return:
        processReturn<Emit>();
        break;
      case EventKind::Work: {
        const auto scaled = std::llround(
            static_cast<double>(e.payload()) * config_.instrScale);
        workLeft_ +=
            static_cast<std::uint64_t>(std::max<long long>(scaled, 1));
        break;
      }
      case EventKind::Branch:
        processBranch<Emit>(e.payload() != 0);
        break;
      case EventKind::Load:
      case EventKind::Store:
        processMem<Emit>(e.kind(), e.payload());
        break;
      case EventKind::Switch:
        switchThread(e.payload());
        break;
      case EventKind::Hint:
        // Hints cost no instruction slot: park the payload until
        // the next emitted instruction carries it to the core.
        pendingHints_.push_back(e.payload());
        break;
    }
    return true;
}

bool
InstructionExpander::take(DynInst &out)
{
    if (readIdx_ == ready_.size()) {
        ready_.clear();
        readIdx_ = 0;
        while (ready_.empty()) {
            if (workLeft_ == 0) {
                if (!pullEvent<true>())
                    return false;
                continue;
            }
            // Work with nothing queued ahead of it and no block
            // cross due: build it where the caller wants it.
            Activation *act = top();
            if (act != nullptr && act->offset < act->usable) {
                makeWorkInst(out);
                return true;
            }
            emitWorkInstr();
        }
    }
    out = ready_[readIdx_++];
    return true;
}

bool
InstructionExpander::next(DynInst &out)
{
    if (!take(out))
        return false;
    if (!pendingHints_.empty()) {
        const std::uint64_t payload = pendingHints_.front();
        pendingHints_.pop_front();
        out.hintAddr = hintAddrOf(payload);
        out.hintKind =
            static_cast<std::uint8_t>(hintKindOf(payload));
    }
    return true;
}

template <bool Warm>
void
InstructionExpander::walkWork(std::uint64_t budget, WarmSink *sink)
{
    Activation *act = top();
    cgp_assert(act != nullptr, "work outside any function");
    auto &ts = thread();
    const Addr frame = frameOf(ts);
    std::uint64_t left = budget;
    std::uint64_t work = 0;
    bool jumpCut = false;
    while (workLeft_ > 0 && left > 0) {
        std::uint64_t room = act->offset < act->usable
            ? act->usable - act->offset
            : 0;
        if (room == 0) {
            if (act->needJump) {
                if (left == 1) {
                    jumpCut = true;
                    break;
                }
                --left; // crossIfNeeded counts the jump
                if constexpr (Warm)
                    sink->inst(crossJump(*act));
            }
            crossIfNeeded<false>(*act);
            // The instruction that crossed goes out even into a
            // block with no usable slot, as in emitWorkInstr.
            room = std::max<std::uint64_t>(act->usable, 1);
        }
        const std::uint64_t n =
            std::min<std::uint64_t>({left, workLeft_, room});
        if constexpr (Warm)
            sink->work(curPc(*act), ts.workCounter + work, n, frame);
        act->offset = static_cast<std::uint16_t>(act->offset + n);
        workLeft_ -= n;
        emitted_ += n;
        work += n;
        left -= n;
    }

    // The kinds follow from the thread's work counter (see
    // takeWork): a load wins where a load and a store fall
    // together.
    constexpr unsigned both = std::lcm(stackLoadEvery, stackStoreEvery);
    loads_ += multiplesIn(ts.workCounter, work, stackLoadEvery);
    stores_ += multiplesIn(ts.workCounter, work, stackStoreEvery) -
        multiplesIn(ts.workCounter, work, both);
    ts.workCounter += work;
    ts.loadIn = countedDown(ts.loadIn, work, stackLoadEvery);
    ts.storeIn = countedDown(ts.storeIn, work, stackStoreEvery);
    ts.mulIn = countedDown(ts.mulIn, work, mulEvery);

    // The budget ends on a cross jump: next() would leave the work
    // instruction queued behind it.
    if (jumpCut)
        emitWorkInstr();
}

template <bool Warm>
std::uint64_t
InstructionExpander::walk(std::uint64_t n, WarmSink *sink)
{
    // An event queues at most a cross jump, its own instruction and
    // the block of a decision arm.
    const std::uint64_t eventMax = 2 + image_.maxBlockInstrs();
    std::uint64_t done = 0;
    while (done < n) {
        if (Warm && !pendingHints_.empty()) {
            // A hint rides on the next instruction: next() attaches
            // it.
            DynInst inst;
            if (!next(inst))
                break;
            sink->inst(inst);
            ++done;
            continue;
        }
        const std::uint64_t left = n - done;
        std::uint64_t k;
        if (readIdx_ < ready_.size()) {
            k = std::min<std::uint64_t>(left, ready_.size() - readIdx_);
            if constexpr (Warm) {
                for (std::uint64_t i = 0; i < k; ++i)
                    sink->inst(ready_[readIdx_ + i]);
            }
            readIdx_ += k;
        } else {
            ready_.clear();
            readIdx_ = 0;
            const std::uint64_t before = emitted_;
            if (workLeft_ > 0)
                walkWork<Warm>(left, sink);
            else if (!(!Warm && left >= eventMax ? pullEvent<false>()
                                                 : pullEvent<true>()))
                break;
            // Counted instructions are done; queued ones leave
            // through the branch above.
            k = emitted_ - before - ready_.size();
        }
        // Each instruction next() hands out carries one pending hint.
        if (!pendingHints_.empty()) {
            const auto hints = static_cast<std::ptrdiff_t>(
                std::min<std::uint64_t>(k, pendingHints_.size()));
            pendingHints_.erase(pendingHints_.begin(),
                                pendingHints_.begin() + hints);
        }
        done += k;
    }
    return done;
}

std::uint64_t
InstructionExpander::warm(std::uint64_t n, WarmSink &sink)
{
    return walk<true>(n, &sink);
}

std::uint64_t
InstructionExpander::advance(std::uint64_t n)
{
    return walk<false>(n, nullptr);
}

} // namespace cgp
