/**
 * @file
 * Tests for the instruction expander: structural invariants of the
 * emitted stream, layout independence of the dynamic behaviour, and
 * the control-flow bookkeeping CGP depends on (call/return pairing,
 * function identity, return targets), the functional-warming path
 * (warm), the block-granular advance() and the fetch path's
 * workRun()/takeWork() against a pure next() expansion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "codegen/layout.hh"
#include "harness/workload.hh"
#include "trace/expand.hh"
#include "trace/recorder.hh"
#include "util/rng.hh"

namespace cgp
{
namespace
{

struct StreamFixture
{
    FunctionRegistry reg;
    TraceBuffer trace;
    FunctionId a, b, c;

    StreamFixture()
    {
        a = reg.declare("A", FunctionTraits::medium());
        b = reg.declare("B", FunctionTraits::small());
        c = reg.declare("C", FunctionTraits::tiny());

        TraceRecorder rec(trace);
        rec.call(a);
        for (int i = 0; i < 20; ++i) {
            rec.work(40);
            rec.call(b);
            rec.work(25);
            rec.loadAt(0x1000'0000 + i * 64);
            rec.call(c);
            rec.work(8);
            rec.ret();
            rec.branch(i % 3 == 0);
            rec.ret();
            rec.storeAt(0x1000'4000 + i * 32);
        }
        rec.ret();
    }
};

std::vector<DynInst>
expandAll(const FunctionRegistry &reg, const CodeImage &image,
          const TraceBuffer &trace, ExecutionProfile *profile = nullptr)
{
    InstructionExpander ex(reg, image, trace);
    if (profile != nullptr)
        ex.setProfile(profile);
    std::vector<DynInst> out;
    DynInst inst;
    while (ex.next(inst))
        out.push_back(inst);
    return out;
}

TEST(Expander, EmitsBalancedCallsAndReturns)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const auto stream =
        expandAll(s.reg, builder.buildOriginal(), s.trace);

    int depth = 0;
    std::uint64_t calls = 0, rets = 0;
    for (const auto &inst : stream) {
        if (inst.kind == InstKind::Call) {
            ++depth;
            ++calls;
        } else if (inst.kind == InstKind::Return) {
            --depth;
            ++rets;
        }
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(calls, rets);
    EXPECT_EQ(calls, 41u); // 1 root + 20 * (B + C)
}

TEST(Expander, PcsStayInsideTheOwningFunction)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto stream = expandAll(s.reg, image, s.trace);

    for (const auto &inst : stream) {
        if (inst.func == invalidFunctionId)
            continue; // root call site
        const Function &f = s.reg.function(inst.func);
        // The pc must land inside one of the function's blocks.
        bool inside = false;
        for (std::uint16_t b = 0;
             b < static_cast<std::uint16_t>(f.blocks.size()); ++b) {
            const Addr base = image.blockAddr(inst.func, b);
            if (inst.pc >= base &&
                inst.pc < base + f.blocks[b].sizeBytes()) {
                inside = true;
                break;
            }
        }
        EXPECT_TRUE(inside) << "pc outside function body";
        EXPECT_EQ(inst.funcStart, image.funcStart(inst.func));
    }
}

TEST(Expander, CallsCarryCalleeIdentity)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto stream = expandAll(s.reg, image, s.trace);

    for (const auto &inst : stream) {
        if (inst.kind != InstKind::Call)
            continue;
        ASSERT_NE(inst.otherFunc, invalidFunctionId);
        EXPECT_EQ(inst.target, image.funcStart(inst.otherFunc));
        EXPECT_EQ(inst.otherFuncStart, inst.target);
        EXPECT_TRUE(inst.taken);
    }
}

TEST(Expander, ReturnsTargetTheCallerResumePoint)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto stream = expandAll(s.reg, image, s.trace);

    // After each return into a traced function, the next emitted
    // instruction must be at the return's target.
    for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
        const auto &inst = stream[i];
        if (inst.kind != InstKind::Return)
            continue;
        if (inst.otherFunc == invalidFunctionId)
            continue; // root return
        EXPECT_EQ(stream[i + 1].pc, inst.target);
        EXPECT_EQ(stream[i + 1].func, inst.otherFunc);
        EXPECT_EQ(inst.otherFuncStart,
                  image.funcStart(inst.otherFunc));
    }
}

TEST(Expander, TakenControlFlowIsConsistent)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto stream = expandAll(s.reg, image, s.trace);

    for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
        const auto &inst = stream[i];
        if (inst.kind == InstKind::Jump) {
            EXPECT_TRUE(inst.taken);
            EXPECT_EQ(stream[i + 1].pc, inst.target);
        } else if (inst.kind == InstKind::CondBranch && inst.taken) {
            EXPECT_EQ(stream[i + 1].pc, inst.target);
        } else if (inst.kind == InstKind::CondBranch) {
            // Not taken: fall through.
            EXPECT_EQ(stream[i + 1].pc, inst.pc + instrBytes);
        }
    }
}

TEST(Expander, SameDynamicsUnderBothLayouts)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    ExecutionProfile profile;
    const auto o5 = expandAll(s.reg, builder.buildOriginal(), s.trace,
                              &profile);
    const auto om = expandAll(
        s.reg, builder.buildPettisHansen(profile), s.trace);

    auto count = [](const std::vector<DynInst> &v, InstKind k) {
        std::size_t n = 0;
        for (const auto &i : v)
            n += i.kind == k ? 1 : 0;
        return n;
    };
    // Calls, returns, branches, loads and stores are layout
    // independent; only Jump counts differ (layout adjacency).
    EXPECT_EQ(count(o5, InstKind::Call), count(om, InstKind::Call));
    EXPECT_EQ(count(o5, InstKind::Return),
              count(om, InstKind::Return));
    EXPECT_EQ(count(o5, InstKind::CondBranch),
              count(om, InstKind::CondBranch));
    EXPECT_EQ(count(o5, InstKind::Load) + count(o5, InstKind::Store),
              count(om, InstKind::Load) + count(om, InstKind::Store));
    // The OM layout straightens the walk: fewer jumps.
    EXPECT_LE(count(om, InstKind::Jump), count(o5, InstKind::Jump));
}

TEST(Expander, InstrScaleShrinksWork)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();

    InstructionExpander full(s.reg, image, s.trace);
    ExpanderConfig scaled_cfg;
    scaled_cfg.instrScale = 0.88;
    InstructionExpander scaled(s.reg, image, s.trace, scaled_cfg);

    DynInst inst;
    while (full.next(inst)) {
    }
    while (scaled.next(inst)) {
    }
    EXPECT_LT(scaled.emittedInstrs(), full.emittedInstrs());
    // Work dominates this trace, so the ratio lands near 0.88.
    const double ratio =
        static_cast<double>(scaled.emittedInstrs()) /
        static_cast<double>(full.emittedInstrs());
    EXPECT_NEAR(ratio, 0.88, 0.05);
}

TEST(Expander, DeterministicAcrossRuns)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto one = expandAll(s.reg, image, s.trace);
    const auto two = expandAll(s.reg, image, s.trace);
    ASSERT_EQ(one.size(), two.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].pc, two[i].pc);
        EXPECT_EQ(one[i].kind, two[i].kind);
    }
}

TEST(Expander, StatsAccounting)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    InstructionExpander ex(s.reg, image, s.trace);
    DynInst inst;
    std::uint64_t n = 0;
    while (ex.next(inst))
        ++n;
    EXPECT_EQ(ex.emittedInstrs(), n);
    EXPECT_EQ(ex.emittedCalls(), 41u);
    EXPECT_GT(ex.emittedLoads(), 0u);
    EXPECT_GT(ex.emittedStores(), 0u);
    EXPECT_GT(ex.instrsPerCall(), 1.0);
}

TEST(Expander, ContextSwitchesKeepPerThreadStacks)
{
    FunctionRegistry reg;
    const auto a = reg.declare("A", FunctionTraits::medium());
    const auto b = reg.declare("B", FunctionTraits::medium());

    // Hand-build a two-thread interleaving that switches while
    // thread 0 is two frames deep.
    TraceBuffer trace;
    trace.append(TraceEvent::make(EventKind::Switch, 0));
    trace.append(TraceEvent::make(EventKind::Call, a));
    trace.append(TraceEvent::make(EventKind::Work, 10));
    trace.append(TraceEvent::make(EventKind::Call, b));
    trace.append(TraceEvent::make(EventKind::Work, 5));
    trace.append(TraceEvent::make(EventKind::Switch, 1));
    trace.append(TraceEvent::make(EventKind::Call, b));
    trace.append(TraceEvent::make(EventKind::Work, 7));
    trace.append(TraceEvent::make(EventKind::Return, 0));
    trace.append(TraceEvent::make(EventKind::Switch, 0));
    trace.append(TraceEvent::make(EventKind::Work, 5));
    trace.append(TraceEvent::make(EventKind::Return, 0));
    trace.append(TraceEvent::make(EventKind::Return, 0));

    LayoutBuilder builder(reg);
    const CodeImage image = builder.buildOriginal();
    InstructionExpander ex(reg, image, trace);
    std::vector<DynInst> stream;
    DynInst inst;
    while (ex.next(inst))
        stream.push_back(inst);

    // Thread 0's final returns unwind B then A.
    std::vector<FunctionId> returns;
    for (const auto &i : stream) {
        if (i.kind == InstKind::Return)
            returns.push_back(i.func);
    }
    ASSERT_EQ(returns.size(), 3u);
    EXPECT_EQ(returns[0], b); // thread 1's B
    EXPECT_EQ(returns[1], b); // thread 0's B
    EXPECT_EQ(returns[2], a); // thread 0's A
}

// ---------------------------------------------------------------
// Functional warming: warm() and advance() against next()
// ---------------------------------------------------------------

/**
 * A looping body whose entry block is one instruction long and
 * separated from the next hot block by a cold block: in the original
 * layout that block is all jump (usable 0), both on entry and when
 * the walk wraps back to it.  Synthesized bodies never have one,
 * their blocks are at least four instructions long.
 */
Function
jumpOnlyBlockBody()
{
    Function f;
    f.name = "E";
    f.blocks = {{1, BlockRole::Hot},
                {5, BlockRole::Cold},
                {6, BlockRole::Hot},
                {7, BlockRole::Hot}};
    f.hotWalk = {0, 2, 3};
    f.originalOrder = {0, 1, 2, 3};
    return f;
}

/**
 * A trace with every event kind the warm path must handle: calls and
 * returns, work bursts of random length, taken and not-taken
 * branches at decision sites and in a function without any, loads,
 * stores, single and back-to-back hints, a second thread that runs
 * while thread 0 is two frames deep, and work through a block with
 * no usable slot.
 */
struct WarmFixture
{
    FunctionRegistry reg;
    TraceBuffer trace;
    FunctionId e;

    WarmFixture()
    {
        FunctionTraits plain = FunctionTraits::small();
        plain.decisionSites = 0;
        const FunctionId a = reg.declare("A", FunctionTraits::large());
        const FunctionId b = reg.declare("B", FunctionTraits::medium());
        const FunctionId c = reg.declare("C", plain);
        const FunctionId d = reg.declare("D", FunctionTraits::tiny());
        e = reg.define(jumpOnlyBlockBody());

        Rng rng(11);
        TraceRecorder rec(trace);
        const auto work = [&](std::uint64_t max) {
            rec.work(static_cast<std::uint32_t>(1 + rng.nextBelow(max)));
        };
        rec.call(a);
        for (int i = 0; i < 300; ++i) {
            work(60);
            rec.call(i % 2 == 0 ? b : c);
            work(30);
            if (i % 4 == 0)
                rec.hint(DataHintKind::HeapNextSlot, 0x2000'0000 + i * 64);
            if (i % 7 == 0) {
                rec.hint(DataHintKind::BtreeChild, 0x3000'0000 + i * 64);
                rec.hint(DataHintKind::HeapRecord, 0x3100'0000 + i * 64);
            }
            rec.branch(rng.nextBool(0.5));
            rec.loadAt(0x1000'0000 + i * 64);
            work(20);
            rec.call(d);
            work(10);
            rec.storeAt(0x1000'8000 + i * 32);
            rec.ret();
            if (i % 3 == 1) {
                rec.call(e);
                work(50);
                rec.ret();
            }
            rec.branch(rng.nextBool(0.5));
            if (i % 50 == 25) {
                trace.append(TraceEvent::make(EventKind::Switch, 1));
                rec.call(b);
                work(40);
                rec.hint(DataHintKind::HeapNextPage, 0x4000'0000 + i);
                rec.branch(true);
                rec.ret();
                trace.append(TraceEvent::make(EventKind::Switch, 0));
            }
            rec.ret();
        }
        rec.ret();
    }
};

/** How an instruction reached a WarmSink. */
enum class Via : std::uint8_t
{
    Whole,   ///< inst(): a whole DynInst
    Run,     ///< a plain run of a work() call: its pc alone
    StackRef ///< a stack reference of a work() call: pc, address and
             ///< direction
};

/** Records what warm() hands out, in order, one entry per
 *  instruction; work() calls go through splitWork as the core's
 *  hooks take them. */
struct CaptureSink final : WarmSink
{
    std::vector<DynInst> insts;
    std::vector<Via> via;
    /** Plain runs covering more than one instruction. */
    std::size_t longRuns = 0;
    std::size_t stackRefs = 0;

    void
    work(Addr pc, std::uint64_t done, std::uint64_t n,
         Addr frame) override
    {
        EXPECT_GT(n, 0u);
        splitWork(
            pc, done, n, frame,
            [this](Addr first, std::uint64_t count) {
                EXPECT_GT(count, 0u);
                longRuns += count > 1;
                for (std::uint64_t k = 0; k < count; ++k) {
                    DynInst i;
                    i.pc = first + k * instrBytes;
                    insts.push_back(i);
                    via.push_back(Via::Run);
                }
            },
            [this](Addr ref_pc, Addr addr, bool write) {
                DynInst i;
                i.pc = ref_pc;
                i.memAddr = addr;
                i.kind = write ? InstKind::Store : InstKind::Load;
                insts.push_back(i);
                via.push_back(Via::StackRef);
                ++stackRefs;
            });
    }

    void
    inst(const DynInst &i) override
    {
        insts.push_back(i);
        via.push_back(Via::Whole);
    }
};

bool
isPlainWork(const DynInst &i)
{
    return (i.kind == InstKind::IntOp || i.kind == InstKind::MulOp) &&
        i.hintAddr == invalidAddr;
}

/** A run entry must be plain work at the same pc, a stack reference
 *  a hint-free load or store of the same address at the same pc; a
 *  whole entry must equal the reference field by field. */
::testing::AssertionResult
matches(const DynInst &want, const DynInst &got, Via via, std::size_t idx)
{
    switch (via) {
      case Via::Run:
        if (isPlainWork(want) && want.pc == got.pc)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
            << "instruction " << idx << ": run pc " << got.pc
            << " for kind " << static_cast<int>(want.kind) << " at "
            << want.pc;
      case Via::StackRef:
        if (want.kind == got.kind && want.pc == got.pc &&
            want.memAddr == got.memAddr && want.hintAddr == invalidAddr)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
            << "instruction " << idx << ": stack ref " << got.memAddr
            << " at " << got.pc << " for kind "
            << static_cast<int>(want.kind) << " of " << want.memAddr
            << " at " << want.pc;
      case Via::Whole:
        break;
    }
    if (want.pc == got.pc && want.target == got.target &&
        want.memAddr == got.memAddr && want.funcStart == got.funcStart &&
        want.otherFuncStart == got.otherFuncStart &&
        want.hintAddr == got.hintAddr && want.func == got.func &&
        want.otherFunc == got.otherFunc && want.kind == got.kind &&
        want.taken == got.taken && want.hintKind == got.hintKind)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "instruction " << idx << " differs (pc " << got.pc
        << " vs " << want.pc << ")";
}

/** Every emitted*() counter and the end flag agree. */
::testing::AssertionResult
sameCounters(const InstructionExpander &want,
             const InstructionExpander &got)
{
    if (want.emittedInstrs() == got.emittedInstrs() &&
        want.emittedCalls() == got.emittedCalls() &&
        want.emittedBranches() == got.emittedBranches() &&
        want.emittedJumps() == got.emittedJumps() &&
        want.emittedLoads() == got.emittedLoads() &&
        want.emittedStores() == got.emittedStores() &&
        want.endOfStream() == got.endOfStream())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "counters differ after " << want.emittedInstrs() << " vs "
        << got.emittedInstrs() << " instructions";
}

TEST(ExpanderWarm, RandomChunksMatchPureNextExpansion)
{
    WarmFixture s;
    LayoutBuilder builder(s.reg);
    // Images in which E's one-instruction block has no usable slot.
    unsigned jumpOnlyBlocks = 0;
    for (const CodeImage &image :
         {builder.buildOriginal(),
          builder.buildPettisHansen(ExecutionProfile())}) {
        const std::vector<DynInst> ref =
            expandAll(s.reg, image, s.trace);
        const bool jumpOnly = image.blockAddr(s.e, 2) !=
            image.blockAddr(s.e, 0) + instrBytes;
        jumpOnlyBlocks += jumpOnly;
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(seed);
            InstructionExpander ex(s.reg, image, s.trace);
            InstructionExpander lockstep(s.reg, image, s.trace);
            CaptureSink sink;
            Rng rng(seed);
            std::uint64_t midBurst = 0, afterJump = 0;
            DynInst inst;
            for (;;) {
                std::uint64_t want = 0, got = 0;
                if (rng.nextBool(0.75)) {
                    switch (rng.nextBelow(4)) {
                      case 0: want = 0; break;
                      case 1: want = 1; break;
                      case 2: want = 2 + rng.nextBelow(15); break;
                      default: want = rng.nextBelow(400); break;
                    }
                    got = ex.warm(want, sink);
                } else {
                    want = 1 + rng.nextBelow(3);
                    while (got < want && ex.next(inst)) {
                        sink.inst(inst);
                        ++got;
                    }
                }
                for (std::uint64_t i = 0; i < got; ++i)
                    ASSERT_TRUE(lockstep.next(inst));
                // A short chunk means the trace ended; one more
                // next() makes the reference see the end too.
                if (got < want) {
                    ASSERT_FALSE(lockstep.next(inst));
                }
                ASSERT_TRUE(sameCounters(lockstep, ex));
                const std::size_t pos = sink.insts.size();
                if (got > 0 && pos < ref.size()) {
                    midBurst += isPlainWork(ref[pos - 1]) &&
                        isPlainWork(ref[pos]) &&
                        ref[pos].pc == ref[pos - 1].pc + instrBytes;
                    afterJump += ref[pos - 1].kind == InstKind::Jump;
                }
                if (got < want)
                    break;
            }
            EXPECT_TRUE(ex.endOfStream());
            ASSERT_EQ(sink.insts.size(), ref.size());
            std::size_t direct = 0;
            for (std::size_t i = 0; i < ref.size(); ++i) {
                ASSERT_TRUE(matches(ref[i], sink.insts[i], sink.via[i],
                                    i));
                direct += sink.via[i] != Via::Whole;
            }
            // The chunking must have exercised the cases the warm
            // path has to get exactly right.
            EXPECT_GT(direct, ref.size() / 4);
            EXPECT_GT(sink.longRuns, 0u);
            EXPECT_GT(sink.stackRefs, 0u);
            EXPECT_GT(midBurst, 0u);
            EXPECT_GT(afterJump, 0u);
        }
    }
    EXPECT_GT(jumpOnlyBlocks, 0u);
}

TEST(ExpanderWarm, HintedWorkArrivesWhole)
{
    WarmFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const std::vector<DynInst> ref = expandAll(s.reg, image, s.trace);

    InstructionExpander ex(s.reg, image, s.trace);
    CaptureSink sink;
    EXPECT_EQ(ex.warm(~0ull, sink), ref.size());
    std::size_t hinted = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i].hintAddr == invalidAddr)
            continue;
        ++hinted;
        EXPECT_EQ(sink.via[i], Via::Whole) << i;
        EXPECT_EQ(sink.insts[i].hintAddr, ref[i].hintAddr) << i;
    }
    EXPECT_GT(hinted, 100u);
}

TEST(ExpanderWarm, AdvanceResumesWhereNextWould)
{
    WarmFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const std::vector<DynInst> ref = expandAll(s.reg, image, s.trace);

    for (const std::uint64_t skip : {0ull, 1ull, 7ull, 1000ull,
                                     static_cast<unsigned long long>(
                                         ref.size() - 1)}) {
        SCOPED_TRACE(skip);
        InstructionExpander ex(s.reg, image, s.trace);
        ASSERT_EQ(ex.advance(skip), skip);
        DynInst inst;
        for (std::size_t i = skip; i < ref.size(); ++i) {
            ASSERT_TRUE(ex.next(inst));
            ASSERT_TRUE(matches(ref[i], inst, Via::Whole, i));
        }
        EXPECT_FALSE(ex.next(inst));
        EXPECT_TRUE(ex.endOfStream());
    }
    InstructionExpander ex(s.reg, image, s.trace);
    EXPECT_EQ(ex.advance(ref.size() + 5), ref.size());
    EXPECT_TRUE(ex.endOfStream());
}

/** Reports Dry on every @c every-th pull, then resumes. */
class DryEverySource final : public TraceSource
{
  public:
    DryEverySource(const TraceBuffer &trace, unsigned every)
        : inner_(trace), every_(every)
    {
    }

    Pull
    next(TraceEvent &out) override
    {
        if (++pulls_ % every_ == 0) {
            ++dry_;
            return Pull::Dry;
        }
        return inner_.next(out);
    }

    unsigned dry() const { return dry_; }

  private:
    BufferTraceSource inner_;
    unsigned every_;
    unsigned pulls_ = 0;
    unsigned dry_ = 0;
};

TEST(ExpanderWarm, DrySourceStopsShortAndResumes)
{
    WarmFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const std::vector<DynInst> ref = expandAll(s.reg, image, s.trace);
    InstructionExpander whole(s.reg, image, s.trace);
    DynInst inst;
    while (whole.next(inst)) {
    }

    DryEverySource source(s.trace, 13);
    InstructionExpander ex(s.reg, image, source);
    CaptureSink sink;
    unsigned shortReturns = 0;
    while (!ex.endOfStream()) {
        const std::uint64_t got = ex.warm(500, sink);
        if (got < 500 && !ex.endOfStream())
            ++shortReturns;
        ASSERT_LT(shortReturns, 100'000u) << "no progress";
    }
    EXPECT_GT(source.dry(), 0u);
    EXPECT_GT(shortReturns, 0u);
    ASSERT_EQ(sink.insts.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_TRUE(matches(ref[i], sink.insts[i], sink.via[i], i));
    EXPECT_TRUE(sameCounters(whole, ex));
}

// ---------------------------------------------------------------
// advance(), warm() and next() mixed on one expander against next()
// ---------------------------------------------------------------

/** Where the chunk boundaries of checkAdvance() fell. */
struct AdvanceCuts
{
    std::uint64_t chunks = 0;
    /** Right after a jump: a cross or an arm's tail. */
    std::uint64_t afterJump = 0;
    /** Right after a taken branch: inside its event. */
    std::uint64_t afterTakenBranch = 0;
    /** Between two plain work instructions of one block. */
    std::uint64_t midBurst = 0;
    /** Runs that ended by asking for the rest of the trace. */
    std::uint64_t restOfTrace = 0;
    /** Instructions warm() handed out without a DynInst. */
    std::uint64_t warmDirect = 0;
};

/**
 * Drive one expander by advance() and warm() in random chunks, with
 * short runs of next() between them, and a second by next() alone:
 * after every chunk the counters agree, and every instruction warm()
 * or next() hands out matches the reference's.  @p maxChunk scales
 * the chunk sizes; the @p restAt-th advance() asks for the rest of
 * the trace (0: none does).
 */
void
checkAdvance(const FunctionRegistry &reg, const CodeImage &image,
             const TraceBuffer &trace, std::uint64_t seed,
             std::uint64_t maxChunk, std::uint64_t restAt,
             AdvanceCuts &cuts)
{
    InstructionExpander ex(reg, image, trace);
    InstructionExpander lockstep(reg, image, trace);
    Rng rng(seed);
    DynInst last, inst, want;
    std::uint64_t pos = 0, advances = 0;
    bool cut = false;
    for (;;) {
        std::uint64_t asked = 0, got = 0;
        const std::uint64_t pick = rng.nextBelow(10);
        if (pick < 7) {
            switch (rng.nextBelow(4)) {
              case 0: asked = rng.nextBelow(3); break;
              case 1: asked = 3 + rng.nextBelow(40); break;
              case 2: asked = rng.nextBelow(maxChunk); break;
              default: asked = rng.nextBelow(20 * maxChunk); break;
            }
        }
        if (pick < 4) {
            // The rest of the trace, as profileOf asks, but here
            // after a start.
            if (++advances == restAt) {
                asked = ~0ull;
                ++cuts.restOfTrace;
            }
            got = ex.advance(asked);
            ASSERT_LE(got, asked);
            for (std::uint64_t i = 0; i < got; ++i)
                ASSERT_TRUE(lockstep.next(last));
            cut = got > 0;
        } else if (pick < 7) {
            CaptureSink sink;
            got = ex.warm(asked, sink);
            ASSERT_LE(got, asked);
            ASSERT_EQ(sink.insts.size(), got);
            for (std::uint64_t i = 0; i < got; ++i) {
                ASSERT_TRUE(lockstep.next(last));
                ASSERT_TRUE(matches(last, sink.insts[i], sink.via[i],
                                    pos + i));
                cuts.warmDirect += sink.via[i] != Via::Whole;
            }
            cut = got > 0;
        } else {
            asked = 1 + rng.nextBelow(3);
            while (got < asked && ex.next(inst)) {
                ASSERT_TRUE(lockstep.next(want));
                ASSERT_TRUE(matches(want, inst, Via::Whole, pos + got));
                if (cut && got == 0) {
                    ++cuts.chunks;
                    cuts.afterJump += last.kind == InstKind::Jump;
                    cuts.afterTakenBranch +=
                        last.kind == InstKind::CondBranch && last.taken;
                    cuts.midBurst += isPlainWork(last) &&
                        isPlainWork(inst) &&
                        inst.pc == last.pc + instrBytes;
                }
                last = inst;
                ++got;
            }
            cut = false;
        }
        pos += got;
        // A short chunk means the trace ended; one more next() makes
        // the reference see the end too.
        if (got < asked) {
            ASSERT_FALSE(lockstep.next(want));
        }
        ASSERT_TRUE(sameCounters(lockstep, ex)) << "at " << pos;
        if (got < asked)
            break;
    }
    EXPECT_TRUE(ex.endOfStream());
    EXPECT_GT(pos, 0u);
}

TEST(ExpanderWarm, AdvanceChunksThenNextMatchPureNextExpansion)
{
    WarmFixture s;
    LayoutBuilder builder(s.reg);
    AdvanceCuts cuts;
    for (const CodeImage &image :
         {builder.buildOriginal(),
          builder.buildPettisHansen(ExecutionProfile())}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(seed);
            checkAdvance(s.reg, image, s.trace, seed, 60,
                         seed % 2 == 0 ? 30 * seed : 0, cuts);
        }
    }
    // The chunking must have cut events and bursts where the walk
    // has to stop exactly.
    EXPECT_GT(cuts.chunks, 500u);
    EXPECT_GT(cuts.afterJump, 0u);
    EXPECT_GT(cuts.afterTakenBranch, 0u);
    EXPECT_GT(cuts.midBurst, 0u);
    EXPECT_GT(cuts.restOfTrace, 0u);
    EXPECT_GT(cuts.warmDirect, 0u);
}

/** The DB workloads at the smallest scale the tests use (built
 *  once). */
const DbWorkloadSet &
smallDbSet()
{
    static const DbWorkloadSet set = WorkloadFactory::buildDbSet(0.03);
    return set;
}

TEST(ExpanderWarm, AdvanceChunksMatchNextOnADbTrace)
{
    const DbWorkloadSet &set = smallDbSet();
    const Workload &w = set.workloads.front(); // wisc-prof
    LayoutBuilder builder(*set.registry);
    AdvanceCuts cuts;
    std::uint64_t seed = 1;
    for (const CodeImage &image :
         {builder.buildOriginal(),
          builder.buildPettisHansen(*set.omProfile)}) {
        SCOPED_TRACE(seed);
        checkAdvance(*set.registry, image, *w.trace, seed++, 500, 0,
                     cuts);
    }
    EXPECT_GT(cuts.chunks, 100u);
    EXPECT_GT(cuts.afterJump, 0u);
    EXPECT_GT(cuts.midBurst, 0u);
    EXPECT_GT(cuts.warmDirect, 0u);
}

/** Both profiles hold the same counts: entries, calls, and each
 *  function's call and block edges as sorted multisets. */
::testing::AssertionResult
sameProfile(const ExecutionProfile &want, const ExecutionProfile &got)
{
    if (want.totalCalls() != got.totalCalls())
        return ::testing::AssertionFailure()
            << "total calls " << got.totalCalls() << " vs "
            << want.totalCalls();
    const auto calls = [](const ExecutionProfile &p, FunctionId f) {
        std::vector<std::pair<FunctionId, std::uint64_t>> out;
        for (const auto &e : p.callees(f))
            out.emplace_back(e.callee, e.weight);
        std::sort(out.begin(), out.end());
        return out;
    };
    const auto edges = [](const ExecutionProfile &p, FunctionId f) {
        std::vector<std::tuple<std::uint16_t, std::uint16_t,
                               std::uint64_t>>
            out;
        for (const auto &e : p.blockEdges(f))
            out.emplace_back(e.from, e.to, e.weight);
        std::sort(out.begin(), out.end());
        return out;
    };
    const std::size_t n =
        std::max(want.functionCount(), got.functionCount());
    for (FunctionId f = 0; f < n; ++f) {
        if (want.entryCount(f) != got.entryCount(f) ||
            calls(want, f) != calls(got, f) ||
            edges(want, f) != edges(got, f))
            return ::testing::AssertionFailure()
                << "function " << f << " differs";
    }
    return ::testing::AssertionSuccess();
}

/** The profile next() fills and the one advance(~0ull) fills over
 *  the O5 image, as the OM profile run builds it. */
void
checkAdvanceProfile(const FunctionRegistry &reg, const TraceBuffer &trace)
{
    const CodeImage image = LayoutBuilder(reg).buildOriginal();
    ExecutionProfile byNext, byAdvance;
    const std::size_t n = expandAll(reg, image, trace, &byNext).size();
    InstructionExpander ex(reg, image, trace);
    ex.setProfile(&byAdvance);
    EXPECT_EQ(ex.advance(~0ull), n);
    EXPECT_GT(byNext.totalCalls(), 0u);
    EXPECT_TRUE(sameProfile(byNext, byAdvance));
}

TEST(ExpanderWarm, AdvanceFillsTheProfileNextFills)
{
    WarmFixture s;
    checkAdvanceProfile(s.reg, s.trace);
    const DbWorkloadSet &set = smallDbSet();
    checkAdvanceProfile(*set.registry, *set.workloads.front().trace);
}

// ---------------------------------------------------------------
// workRun()/takeWork() mixed with next() against next() alone
// ---------------------------------------------------------------

/** Which function's text holds a pc in one image. */
class FuncLookup
{
  public:
    explicit FuncLookup(const CodeImage &image)
    {
        for (const FunctionId fid : image.order())
            starts_.emplace_back(image.funcStart(fid), fid);
        std::sort(starts_.begin(), starts_.end());
    }

    /** The function starting last at or before @p pc. */
    FunctionId
    at(Addr pc) const
    {
        const auto it = std::upper_bound(
            starts_.begin(), starts_.end(),
            std::pair{pc, invalidFunctionId});
        return it == starts_.begin() ? invalidFunctionId
                                     : std::prev(it)->second;
    }

  private:
    std::vector<std::pair<Addr, FunctionId>> starts_;
};

/** What checkRunMix() saw. */
struct RunMix
{
    std::uint64_t viaRun = 0;   ///< instructions takeWork() handed out
    std::uint64_t wholeRuns = 0; ///< runs taken to their last
    std::uint64_t dryStops = 0; ///< next() calls that found it dry
};

/**
 * Hand @p ex's stream out through seeded random mixes of takeWork()
 * (1 to the run length per turn) and next(), each instruction
 * against @p ref's next().  A run instruction carries no DynInst:
 * its func and funcStart, which the core never reads for work,
 * follow from its pc's place in @p image.
 */
void
checkRunMix(InstructionExpander &ex, InstructionExpander &ref,
            const CodeImage &image, std::uint64_t seed, RunMix &mix)
{
    const FuncLookup funcs(image);
    Rng rng(seed);
    std::uint64_t idx = 0;
    DynInst want;
    for (;;) {
        Addr pc = invalidAddr;
        const std::uint64_t run = ex.workRun(pc);
        if (run != 0 && rng.nextBool(0.8)) {
            const std::uint64_t k = 1 + rng.nextBelow(run);
            mix.wholeRuns += k == run;
            for (std::uint64_t i = 0; i < k; ++i, ++idx, pc += instrBytes) {
                Addr mem = 0;
                const InstKind kind = ex.takeWork(mem);
                ASSERT_TRUE(ref.next(want)) << "instruction " << idx;
                ASSERT_EQ(pc, want.pc) << "instruction " << idx;
                ASSERT_EQ(kind, want.kind) << "instruction " << idx;
                ASSERT_EQ(mem, want.memAddr) << "instruction " << idx;
                ASSERT_EQ(want.hintAddr, invalidAddr)
                    << "instruction " << idx;
                const FunctionId fid = funcs.at(pc);
                ASSERT_EQ(fid, want.func) << "instruction " << idx;
                ASSERT_EQ(image.funcStart(fid), want.funcStart)
                    << "instruction " << idx;
            }
            mix.viaRun += k;
            continue;
        }
        DynInst got;
        if (!ex.next(got)) {
            if (ex.endOfStream())
                break;
            // Dry: no run until the source gives more.
            ++mix.dryStops;
            ASSERT_EQ(ex.workRun(pc), 0u);
            ASSERT_LT(mix.dryStops, 1'000'000u) << "no progress";
            continue;
        }
        ASSERT_TRUE(ref.next(want)) << "instruction " << idx;
        ASSERT_TRUE(std::tie(got.pc, got.kind, got.memAddr, got.hintAddr,
                             got.hintKind, got.func, got.funcStart,
                             got.target, got.taken, got.otherFunc,
                             got.otherFuncStart) ==
                    std::tie(want.pc, want.kind, want.memAddr,
                             want.hintAddr, want.hintKind, want.func,
                             want.funcStart, want.target, want.taken,
                             want.otherFunc, want.otherFuncStart))
            << "instruction " << idx << " differs (pc " << got.pc
            << " vs " << want.pc << ")";
        ++idx;
    }
    EXPECT_FALSE(ref.next(want));
    EXPECT_TRUE(sameCounters(ref, ex));
}

TEST(ExpanderRun, MixedRunsMatchNextOnEveryDbWorkload)
{
    const DbWorkloadSet &set = smallDbSet();
    LayoutBuilder builder(*set.registry);
    const CodeImage o5 = builder.buildOriginal();
    const CodeImage om = builder.buildPettisHansen(*set.omProfile);
    ExpanderConfig omConfig;
    omConfig.instrScale = 0.88;
    std::uint64_t seed = 1;
    for (const Workload &w : set.workloads) {
        for (const auto &[image, config] :
             {std::pair{&o5, ExpanderConfig{}}, std::pair{&om, omConfig}}) {
            SCOPED_TRACE(w.name + " seed " + std::to_string(seed));
            InstructionExpander ex(*set.registry, *image, *w.trace, config);
            InstructionExpander ref(*set.registry, *image, *w.trace,
                                    config);
            RunMix mix;
            checkRunMix(ex, ref, *image, seed++, mix);
            if (HasFatalFailure())
                return;
            // Most of the stream is plain work: runs carry most of it.
            EXPECT_GT(mix.viaRun * 2, ex.emittedInstrs());
            EXPECT_GT(mix.wholeRuns, 0u);
        }
    }
}

TEST(ExpanderRun, DrySourceGivesNoRunAndResumesWhereNextWould)
{
    // Hints, thread switches and a block with no usable slot.
    WarmFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    DryEverySource source(s.trace, 13);
    InstructionExpander ex(s.reg, image, source);
    InstructionExpander ref(s.reg, image, s.trace);
    RunMix mix;
    checkRunMix(ex, ref, image, 7, mix);
    EXPECT_GT(mix.dryStops, 0u);
    EXPECT_EQ(mix.dryStops, source.dry());
    EXPECT_GT(mix.viaRun, 0u);
}

TEST(ExpanderRun, StackedHintsRideOnWorkThroughNext)
{
    // Several hints before a work burst: each of the burst's first
    // instructions carries one, so none of them may come as a run.
    FunctionRegistry reg;
    const FunctionId a = reg.declare("A", FunctionTraits::medium());
    const FunctionId b = reg.declare("B", FunctionTraits::small());
    TraceBuffer trace;
    TraceRecorder rec(trace);
    rec.call(a);
    for (int i = 0; i < 50; ++i) {
        for (int h = 0; h < 1 + i % 4; ++h)
            rec.hint(DataHintKind::HeapNextSlot, 0x2000'0000 + i * 64 + h);
        rec.work(40);
        rec.call(b);
        rec.hint(DataHintKind::BtreeChild, 0x3000'0000 + i * 64);
        rec.hint(DataHintKind::HeapRecord, 0x3100'0000 + i * 64);
        rec.work(12);
        rec.ret();
    }
    rec.ret();
    const CodeImage image = LayoutBuilder(reg).buildOriginal();
    InstructionExpander ex(reg, image, trace);
    InstructionExpander ref(reg, image, trace);
    RunMix mix;
    checkRunMix(ex, ref, image, 3, mix);
    EXPECT_GT(mix.viaRun, 0u);
}

} // namespace
} // namespace cgp
