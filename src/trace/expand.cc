#include "trace/expand.hh"

#include <algorithm>
#include <cmath>

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

/** Count one work instruction down; true (and re-armed) when it is
 *  the period's last. */
bool
countDown(std::uint32_t &left, unsigned period)
{
    if (--left != 0)
        return false;
    left = period;
    return true;
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

Addr
InstructionExpander::stackSlot(const ThreadState &ts, std::uint64_t k,
                               bool load)
{
    const std::uint64_t slot = load ? k % 16 : k % 8;
    return ts.stackBase + (ts.stack.size() * 128) + slot * 8;
}

Addr
InstructionExpander::curPc(const Activation &act) const
{
    return act.blockBase + static_cast<Addr>(act.offset) * instrBytes;
}

DynInst
InstructionExpander::makeInst(const Activation &act, InstKind kind)
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
InstructionExpander::nextWalkIdx(const Activation &act) const
{
    const Function &f = registry_.function(act.fid);
    const std::size_t walk_len = f.hotWalk.size();
    const std::uint32_t cc = act.crossCount + 1u;
    if (act.pendingDispatch != ~0u && cc >= dispatchAfterBlocks) {
        std::size_t idx = act.pendingDispatch % walk_len;
        if (idx == 0)
            idx = 1 % walk_len;
        return static_cast<std::uint32_t>(idx);
    }
    if (act.pendingDispatch == ~0u && walk_len >= 6 &&
        cc % (5 + (act.pathMix & 3)) == 0) {
        // Mid-body control flow: the path occasionally jumps to
        // another region of the body (if/else ladders, switch
        // dispatch), bounding the sequential run lengths the NL
        // prefetcher can exploit (the paper's ~43-instruction runs).
        const std::uint32_t delta = 2 +
            ((act.pathMix >> 8) %
             static_cast<std::uint32_t>(walk_len - 2));
        return static_cast<std::uint32_t>(
            (act.walkIdx + delta) % walk_len);
    }
    return static_cast<std::uint32_t>((act.walkIdx + 1) % walk_len);
}

void
InstructionExpander::setupBlock(Activation &act)
{
    const Function &f = registry_.function(act.fid);
    const BasicBlock &b = f.blocks[act.block];
    act.offset = 0;
    act.blockBase = image_.blockAddr(act.fid, act.block);

    // Where does the walk go after this block, and is that block the
    // fall-through neighbour in this layout?
    act.nextWalk = nextWalkIdx(act);
    act.nextAddr = image_.blockAddr(act.fid, f.hotWalk[act.nextWalk]);
    const bool adjacent = act.nextAddr == act.blockBase + b.sizeBytes();
    act.needJump = !adjacent;
    act.usable = adjacent
        ? b.instrs
        : static_cast<std::uint16_t>(b.instrs - 1);
}

void
InstructionExpander::advanceWalk(Activation &act)
{
    const Function &f = registry_.function(act.fid);
    const std::uint16_t from = act.block;
    act.walkIdx = act.nextWalk;
    ++act.crossCount;
    if (act.crossCount >= dispatchAfterBlocks)
        act.pendingDispatch = ~0u;
    act.block = f.hotWalk[act.walkIdx];
    if (profile_ != nullptr)
        profile_->onBlockEdge(act.fid, from, act.block);
    setupBlock(act);
}

void
InstructionExpander::crossIfNeeded(Activation &act)
{
    if (act.offset < act.usable)
        return;

    if (act.needJump) {
        DynInst jmp = makeInst(act, InstKind::Jump);
        jmp.taken = true;
        jmp.target = act.nextAddr;
        push(jmp);
    }
    advanceWalk(act);
}

void
InstructionExpander::makeWorkInst(Activation &act, DynInst &out)
{
    auto &ts = thread();
    ++ts.workCounter;
    // The k-th work instruction of a thread is a stack load when k
    // is a multiple of stackLoadEvery, else a stack store when it is
    // one of stackStoreEvery, else a multiply when it is one of
    // mulEvery; every countdown ticks on every instruction.
    const bool load = countDown(ts.loadIn, stackLoadEvery);
    const bool store = countDown(ts.storeIn, stackStoreEvery);
    const bool mul = countDown(ts.mulIn, mulEvery);

    out = makeInst(act, load ? InstKind::Load
                       : store ? InstKind::Store
                       : mul   ? InstKind::MulOp
                               : InstKind::IntOp);
    if (load || store)
        out.memAddr = stackSlot(ts, ts.workCounter, load);
    count(out.kind);
    ++act.offset;
    --workLeft_;
}

bool
InstructionExpander::emitWorkInstr(WarmSink *direct)
{
    Activation *act = top();
    cgp_assert(act != nullptr, "work outside any function");
    crossIfNeeded(*act);

    DynInst inst;
    makeWorkInst(*act, inst);
    if (direct != nullptr && readIdx_ == ready_.size() &&
        inst.kind != InstKind::Load && inst.kind != InstKind::Store) {
        direct->pcRun(inst.pc, 1);
        return true;
    }
    ready_.push_back(inst);
    return false;
}

std::uint64_t
InstructionExpander::emitWorkRun(std::uint64_t budget, WarmSink &sink)
{
    Activation &act = *top();
    auto &ts = thread();
    const std::uint64_t n = std::min<std::uint64_t>(
        {budget, workLeft_,
         static_cast<std::uint64_t>(act.usable - act.offset)});
    Addr pc = curPc(act);
    std::uint64_t left = n;
    for (;;) {
        // The segment ends at the next stack reference (the loadIn-th
        // or storeIn-th instruction from here) when it falls inside.
        const std::uint32_t refAt = std::min(ts.loadIn, ts.storeIn);
        const std::uint64_t step = std::min<std::uint64_t>(refAt, left);
        if (step == 0)
            break;
        const bool ref = refAt <= left;
        const std::uint64_t plain = ref ? step - 1 : step;
        if (plain > 0)
            sink.pcRun(pc, plain);
        if (ref) {
            // A load when both countdowns end here, as in
            // emitWorkInstr.
            const bool load = ts.loadIn == refAt;
            sink.stackRef(pc + plain * instrBytes,
                          stackSlot(ts, ts.workCounter + refAt, load),
                          !load);
            ++(load ? loads_ : stores_);
        }
        pc += step * instrBytes;
        ts.workCounter += step;
        ts.loadIn = countedDown(ts.loadIn, step, stackLoadEvery);
        ts.storeIn =
            countedDown(ts.storeIn, step, stackStoreEvery);
        left -= step;
    }
    ts.mulIn = countedDown(ts.mulIn, n, mulEvery);
    act.offset = static_cast<std::uint16_t>(act.offset + n);
    workLeft_ -= n;
    emitted_ += n;
    return n;
}

void
InstructionExpander::processCall(FunctionId callee)
{
    cgp_assert(callee < registry_.size(), "call to unknown function");

    auto &ts = thread();
    FunctionId caller = invalidFunctionId;
    if (Activation *act = top(); act != nullptr) {
        crossIfNeeded(*act);
        caller = act->fid;
        DynInst call = makeInst(*act, InstKind::Call);
        call.taken = true;
        call.target = image_.funcStart(callee);
        call.otherFunc = callee;
        call.otherFuncStart = call.target;
        push(call);
        ++act->offset;
    } else {
        // Root call: synthesize a per-thread call site outside the
        // text segment ("main" is untraced).
        DynInst call;
        call.pc = image_.textLimit() + 64 + curThread_ * 256;
        call.kind = InstKind::Call;
        call.taken = true;
        call.target = image_.funcStart(callee);
        call.func = invalidFunctionId;
        call.funcStart = invalidAddr;
        call.otherFunc = callee;
        call.otherFuncStart = call.target;
        push(call);
    }

    Activation act{};
    act.funcBase = image_.funcStart(callee);
    act.fid = callee;
    act.walkIdx = 0;
    const Function &f = registry_.function(callee);
    cgp_assert(!f.hotWalk.empty(), "function with empty walk");
    act.block = f.hotWalk[0];
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
    act.pendingDispatch =
        f.hotWalk.size() >= 4 ? (mix >> 3) * 3 + 1 : ~0u;
    ts.stack.push_back(act);
    setupBlock(ts.stack.back());

    if (profile_ != nullptr) {
        if (caller != invalidFunctionId)
            profile_->onCall(caller, callee);
        profile_->onEntry(callee);
    }
}

void
InstructionExpander::processReturn()
{
    auto &ts = thread();
    cgp_assert(!ts.stack.empty(), "return with empty stack");

    Activation &act = ts.stack.back();
    crossIfNeeded(act);
    DynInst ret = makeInst(act, InstKind::Return);
    ret.taken = true;

    ts.stack.pop_back();
    if (!ts.stack.empty()) {
        const Activation &caller = ts.stack.back();
        ret.target = curPc(caller);
        ret.otherFunc = caller.fid;
        ret.otherFuncStart = caller.funcBase;
    } else {
        ret.target = image_.textLimit() + 64 + curThread_ * 256
            + instrBytes;
        ret.otherFunc = invalidFunctionId;
        ret.otherFuncStart = invalidAddr;
    }
    push(ret);
}

void
InstructionExpander::processBranch(bool taken)
{
    Activation *actp = top();
    cgp_assert(actp != nullptr, "branch outside any function");
    Activation &act = *actp;
    crossIfNeeded(act);

    const Function &f = registry_.function(act.fid);

    if (f.decisions.empty()) {
        // Function declared without decision sites: a plain biased
        // branch toward the next walk block.
        const std::size_t walk_len = f.hotWalk.size();
        const std::uint16_t next =
            f.hotWalk[(act.walkIdx + 1) % walk_len];
        DynInst br = makeInst(act, InstKind::CondBranch);
        br.taken = taken;
        br.target = image_.blockAddr(act.fid, next);
        push(br);
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

    DynInst br = makeInst(act, InstKind::CondBranch);
    br.taken = taken;
    br.target = image_.blockAddr(act.fid, site.arm);
    push(br);

    if (!taken) {
        ++act.offset;
        return;
    }

    // Execute the arm block, then rejoin the walk at the next hot
    // block (jumping back if the layout separates them).
    if (profile_ != nullptr)
        profile_->onBlockEdge(act.fid, act.block, site.arm);

    std::uint16_t resume_walk;
    if (act.pendingDispatch != ~0u) {
        std::size_t idx = act.pendingDispatch % f.hotWalk.size();
        if (idx == 0)
            idx = 1 % f.hotWalk.size();
        resume_walk = static_cast<std::uint16_t>(idx);
        act.pendingDispatch = ~0u;
    } else {
        resume_walk = static_cast<std::uint16_t>(
            (act.walkIdx + 1) % f.hotWalk.size());
    }
    const std::uint16_t resume = f.hotWalk[resume_walk];

    const BasicBlock &arm = f.blocks[site.arm];
    const Addr arm_base = image_.blockAddr(act.fid, site.arm);
    for (std::uint16_t i = 0; i + 1 < arm.instrs; ++i) {
        DynInst inst;
        inst.pc = arm_base + static_cast<Addr>(i) * instrBytes;
        inst.kind = InstKind::IntOp;
        inst.func = act.fid;
        inst.funcStart = act.funcBase;
        push(inst);
    }
    const Addr resume_addr = image_.blockAddr(act.fid, resume);
    const Addr arm_end = arm_base + arm.sizeBytes();
    DynInst tail;
    tail.pc = arm_end - instrBytes;
    tail.func = act.fid;
    tail.funcStart = act.funcBase;
    if (resume_addr == arm_end) {
        tail.kind = InstKind::IntOp;
    } else {
        tail.kind = InstKind::Jump;
        tail.taken = true;
        tail.target = resume_addr;
    }
    push(tail);

    if (profile_ != nullptr)
        profile_->onBlockEdge(act.fid, site.arm, resume);

    act.walkIdx = resume_walk;
    act.block = resume;
    setupBlock(act);
}

void
InstructionExpander::processMem(EventKind kind, Addr addr)
{
    Activation *actp = top();
    cgp_assert(actp != nullptr, "memory access outside any function");
    crossIfNeeded(*actp);

    DynInst inst = makeInst(
        *actp,
        kind == EventKind::Load ? InstKind::Load : InstKind::Store);
    inst.memAddr = addr;
    push(inst);
    ++actp->offset;
}

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
        processCall(static_cast<FunctionId>(e.payload()));
        break;
      case EventKind::Return:
        processReturn();
        break;
      case EventKind::Work: {
        const auto scaled = std::llround(
            static_cast<double>(e.payload()) * config_.instrScale);
        workLeft_ +=
            static_cast<std::uint64_t>(std::max<long long>(scaled, 1));
        break;
      }
      case EventKind::Branch:
        processBranch(e.payload() != 0);
        break;
      case EventKind::Load:
      case EventKind::Store:
        processMem(e.kind(), e.payload());
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
                if (!pullEvent())
                    return false;
                continue;
            }
            // Work with nothing queued ahead of it and no block
            // cross due: build it where the caller wants it.
            Activation *act = top();
            if (act != nullptr && act->offset < act->usable) {
                makeWorkInst(*act, out);
                return true;
            }
            emitWorkInstr(nullptr);
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

std::uint64_t
InstructionExpander::warm(std::uint64_t n, WarmSink &sink)
{
    std::uint64_t done = 0;
    DynInst inst;
    while (done < n) {
        if (!pendingHints_.empty()) {
            // A hint rides on the next instruction: next() attaches
            // it.
            if (!next(inst))
                break;
            sink.inst(inst);
            ++done;
        } else if (readIdx_ < ready_.size()) {
            sink.inst(ready_[readIdx_++]);
            ++done;
        } else {
            // Nothing queued and no hint to carry: work can go to
            // the sink without a DynInst, the rest of the block at a
            // time unless the next instruction crosses a block.
            ready_.clear();
            readIdx_ = 0;
            if (workLeft_ > 0) {
                const Activation *act = top();
                if (act != nullptr && act->offset < act->usable)
                    done += emitWorkRun(n - done, sink);
                else
                    done += emitWorkInstr(&sink) ? 1 : 0;
            } else if (!pullEvent()) {
                break;
            }
        }
    }
    return done;
}

std::uint64_t
InstructionExpander::advance(std::uint64_t n)
{
    struct Discard final : WarmSink
    {
        void pcRun(Addr, std::uint64_t) override {}
        void stackRef(Addr, Addr, bool) override {}
        void inst(const DynInst &) override {}
    } discard;
    return warm(n, discard);
}

} // namespace cgp
