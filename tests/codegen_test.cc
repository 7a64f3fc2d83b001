/**
 * @file
 * Tests for function synthesis, the registry, execution profiles and
 * the call-graph analyzer.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "codegen/function.hh"
#include "codegen/profile.hh"
#include "codegen/registry.hh"

namespace cgp
{

// Without a printer gtest names each TraitsTest case by the raw bytes
// of its parameter, padding included, so the names changed from run to
// run.
void
PrintTo(const FunctionTraits &t, std::ostream *os)
{
    *os << "hotInstrs=" << t.hotInstrs << " coldFraction=" << t.coldFraction
        << " decisionSites=" << t.decisionSites
        << " loops=" << (t.loops ? "true" : "false");
}

namespace
{

TEST(Registry, DeclareIsIdempotent)
{
    FunctionRegistry reg;
    const auto a = reg.declare("foo", FunctionTraits::medium());
    const auto b = reg.declare("foo", FunctionTraits::tiny());
    EXPECT_EQ(a, b);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, LookupFindsDeclared)
{
    FunctionRegistry reg;
    const auto a = reg.declare("foo", FunctionTraits::small());
    EXPECT_EQ(reg.lookup("foo"), a);
    EXPECT_EQ(reg.lookup("bar"), invalidFunctionId);
}

TEST(Registry, BodiesAreNameStable)
{
    // The same name must synthesize the same body regardless of
    // declaration order or registry instance.
    FunctionRegistry r1, r2;
    r1.declare("pad1", FunctionTraits::tiny());
    const auto a = r1.declare("stable", FunctionTraits::medium());
    const auto b = r2.declare("stable", FunctionTraits::medium());

    const Function &fa = r1.function(a);
    const Function &fb = r2.function(b);
    ASSERT_EQ(fa.blocks.size(), fb.blocks.size());
    for (std::size_t i = 0; i < fa.blocks.size(); ++i) {
        EXPECT_EQ(fa.blocks[i].instrs, fb.blocks[i].instrs);
        EXPECT_EQ(fa.blocks[i].role, fb.blocks[i].role);
    }
    EXPECT_EQ(fa.hotWalk, fb.hotWalk);
    EXPECT_EQ(fa.originalOrder, fb.originalOrder);
}

class TraitsTest
    : public ::testing::TestWithParam<FunctionTraits>
{
};

TEST_P(TraitsTest, SynthesisHonorsTraits)
{
    const FunctionTraits traits = GetParam();
    FunctionRegistry reg;
    const auto id = reg.declare("f", traits);
    const Function &f = reg.function(id);

    // Hot walk instruction count matches the requested size.
    EXPECT_EQ(f.hotWalkInstrs(), traits.hotInstrs);

    // One arm block per decision site.
    EXPECT_EQ(f.decisions.size(), traits.decisionSites);
    for (const auto &d : f.decisions)
        EXPECT_EQ(f.blocks[d.arm].role, BlockRole::Arm);

    // Cold budget approximately honored (block-size granularity).
    std::uint32_t cold = 0;
    for (const auto &b : f.blocks) {
        if (b.role == BlockRole::Cold)
            cold += b.instrs;
    }
    const auto budget = static_cast<std::uint32_t>(
        traits.hotInstrs * traits.coldFraction);
    EXPECT_LE(cold, budget);
    EXPECT_GE(cold + 16, budget);

    // The original order is a permutation of all blocks.
    std::set<std::uint16_t> seen(f.originalOrder.begin(),
                                 f.originalOrder.end());
    EXPECT_EQ(seen.size(), f.blocks.size());

    // The entry block leads the original layout.
    ASSERT_FALSE(f.hotWalk.empty());
    EXPECT_EQ(f.originalOrder.front(), f.hotWalk.front());

    // Hot blocks are small (4..12 instructions).
    for (auto h : f.hotWalk) {
        EXPECT_GE(f.blocks[h].instrs, 4);
        EXPECT_LE(f.blocks[h].instrs, 16);
    }

    EXPECT_EQ(f.loops, traits.loops);
    EXPECT_EQ(f.sizeBytes() % instrBytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, TraitsTest,
    ::testing::Values(FunctionTraits::tiny(), FunctionTraits::small(),
                      FunctionTraits::medium(),
                      FunctionTraits::large(),
                      FunctionTraits::huge()));

TEST(Registry, TotalCodeBytesSumsBodies)
{
    FunctionRegistry reg;
    const auto a = reg.declare("a", FunctionTraits::small());
    const auto b = reg.declare("b", FunctionTraits::large());
    EXPECT_EQ(reg.totalCodeBytes(),
              reg.function(a).sizeBytes() +
                  reg.function(b).sizeBytes());
}

TEST(Profile, RecordsAndMerges)
{
    ExecutionProfile p, q;
    p.onCall(0, 1);
    p.onCall(0, 1);
    p.onCall(1, 2);
    p.onEntry(1);
    q.onCall(0, 1);
    q.onDecision(3, 0, true);
    q.onDecision(3, 0, false);
    q.onBlockEdge(1, 0, 2);

    p.merge(q);
    EXPECT_EQ(p.callWeight(0, 1), 3u);
    EXPECT_EQ(p.callWeight(1, 2), 1u);
    EXPECT_EQ(p.callWeight(9, 9), 0u);
    EXPECT_EQ(p.entryCount(1), 1u);
    EXPECT_EQ(p.totalCalls(), 4u);
    EXPECT_NEAR(p.decisionBias(3, 0), 0.5, 1e-9);
    EXPECT_NEAR(p.decisionBias(4, 0), 0.5, 1e-9);
    EXPECT_EQ(p.blockEdges(1).at({0, 2}), 1u);
    EXPECT_TRUE(p.blockEdges(7).empty());
}

TEST(Profile, DistinctCallees)
{
    ExecutionProfile p;
    p.onCall(5, 1);
    p.onCall(5, 2);
    p.onCall(5, 2);
    p.onCall(6, 1);
    EXPECT_EQ(p.distinctCallees(5), 2u);
    EXPECT_EQ(p.distinctCallees(6), 1u);
    EXPECT_EQ(p.distinctCallees(7), 0u);
}

TEST(CallGraphAnalyzer, FractionBelowThreshold)
{
    ExecutionProfile p;
    // Function 0 calls 2 distinct; function 1 calls 9 distinct.
    p.onCall(0, 10);
    p.onCall(0, 11);
    for (FunctionId c = 20; c < 29; ++c)
        p.onCall(1, c);

    CallGraphAnalyzer a(p);
    EXPECT_EQ(a.callerCount(), 2u);
    EXPECT_NEAR(a.fractionWithFewerCalleesThan(8), 0.5, 1e-9);
    EXPECT_EQ(a.maxDistinctCallees(), 9u);
}

TEST(CallGraphAnalyzer, EmptyProfile)
{
    ExecutionProfile p;
    CallGraphAnalyzer a(p);
    EXPECT_EQ(a.callerCount(), 0u);
    EXPECT_EQ(a.maxDistinctCallees(), 0u);
    EXPECT_NEAR(a.fractionWithFewerCalleesThan(8), 1.0, 1e-9);
}

} // namespace
} // namespace cgp
