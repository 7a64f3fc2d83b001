#include "trace/expand.hh"

#include <cmath>

#include "util/logging.hh"

namespace cgp
{

InstructionExpander::InstructionExpander(const FunctionRegistry &registry,
                                         const CodeImage &image,
                                         const TraceBuffer &trace,
                                         ExpanderConfig config)
    : registry_(registry), image_(image),
      ownedSource_(std::make_unique<BufferTraceSource>(trace)),
      source_(ownedSource_.get()), config_(config)
{
    cgp_assert(config_.instrScale > 0.0, "instrScale must be positive");
    curState_ = &threads_[0];
    curState_->stackBase = stackSegmentBase;
}

InstructionExpander::InstructionExpander(const FunctionRegistry &registry,
                                         const CodeImage &image,
                                         TraceSource &source,
                                         ExpanderConfig config)
    : registry_(registry), image_(image), source_(&source),
      config_(config)
{
    cgp_assert(config_.instrScale > 0.0, "instrScale must be positive");
    curState_ = &threads_[0];
    curState_->stackBase = stackSegmentBase;
}

InstructionExpander::Activation *
InstructionExpander::top()
{
    auto &st = thread().stack;
    return st.empty() ? nullptr : &st.back();
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
    ++emitted_;
    switch (inst.kind) {
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

std::uint16_t
InstructionExpander::nextWalkBlock(const Activation &act) const
{
    const Function &f = registry_.function(act.fid);
    return f.hotWalk[nextWalkIdx(act)];
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
    const std::uint16_t next = nextWalkBlock(act);
    const Addr end = act.blockBase + b.sizeBytes();
    const bool adjacent = image_.blockAddr(act.fid, next) == end;
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
    act.walkIdx = nextWalkIdx(act);
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
        jmp.target = image_.blockAddr(act.fid, nextWalkBlock(act));
        push(jmp);
    }
    advanceWalk(act);
}

void
InstructionExpander::emitWorkInstr()
{
    Activation *act = top();
    cgp_assert(act != nullptr, "work outside any function");
    crossIfNeeded(*act);

    auto &ts = thread();
    ++ts.workCounter;

    InstKind kind = InstKind::IntOp;
    Addr mem = invalidAddr;
    if (ts.workCounter % config_.stackLoadEvery == 0) {
        kind = InstKind::Load;
        mem = ts.stackBase
            + (thread().stack.size() * 128)
            + (ts.workCounter % 16) * 8;
    } else if (ts.workCounter % config_.stackStoreEvery == 0) {
        kind = InstKind::Store;
        mem = ts.stackBase
            + (thread().stack.size() * 128)
            + (ts.workCounter % 8) * 8;
    } else if (ts.workCounter % config_.mulEvery == 0) {
        kind = InstKind::MulOp;
    }

    DynInst inst = makeInst(*act, kind);
    inst.memAddr = mem;
    push(inst);
    ++act->offset;
    --workLeft_;
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

    if (profile_ != nullptr)
        profile_->onDecision(act.fid, site_idx, taken);

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
InstructionExpander::refill()
{
    while (readIdx_ == ready_.size()) {
        if (workLeft_ > 0) {
            emitWorkInstr();
            continue;
        }
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
                static_cast<double>(e.payload()) *
                config_.instrScale);
            workLeft_ += static_cast<std::uint64_t>(
                std::max<long long>(scaled, 1));
            break;
          }
          case EventKind::Branch:
            processBranch(e.payload() != 0);
            break;
          case EventKind::Load:
          case EventKind::Store:
            processMem(e.kind(), e.payload());
            break;
          case EventKind::Switch: {
            curThread_ = e.payload();
            const auto [it, inserted] = threads_.try_emplace(curThread_);
            if (inserted) {
                it->second.stackBase = stackSegmentBase
                    + curThread_ * stackSegmentStride;
            }
            curState_ = &it->second;
            break;
          }
          case EventKind::Hint:
            // Hints cost no instruction slot: park the payload until
            // the next emitted instruction carries it to the core.
            pendingHints_.push_back(e.payload());
            break;
        }
    }
    return true;
}

bool
InstructionExpander::next(DynInst &out)
{
    if (readIdx_ == ready_.size()) {
        ready_.clear();
        readIdx_ = 0;
        if (!refill())
            return false;
    }
    out = ready_[readIdx_++];
    if (!pendingHints_.empty()) {
        const std::uint64_t payload = pendingHints_.front();
        pendingHints_.pop_front();
        out.hintAddr = hintAddrOf(payload);
        out.hintKind =
            static_cast<std::uint8_t>(hintKindOf(payload));
    }
    return true;
}

} // namespace cgp
