/**
 * @file
 * Tests for function synthesis, the registry, execution profiles and
 * the call-graph analyzer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <tuple>
#include <utility>

#include "codegen/function.hh"
#include "codegen/profile.hh"
#include "codegen/registry.hh"
#include "util/rng.hh"

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

/** The profile's call edges as a (caller, callee) -> weight map. */
std::map<std::pair<FunctionId, FunctionId>, std::uint64_t>
callMap(const ExecutionProfile &p)
{
    std::map<std::pair<FunctionId, FunctionId>, std::uint64_t> out;
    for (FunctionId caller = 0; caller < p.functionCount(); ++caller) {
        for (const auto &e : p.callees(caller))
            EXPECT_TRUE(out.emplace(std::pair(caller, e.callee), e.weight)
                            .second)
                << "duplicate call edge " << caller << "->" << e.callee;
    }
    return out;
}

/** The block edges of @p fid as a (from, to) -> weight map. */
std::map<std::pair<std::uint16_t, std::uint16_t>, std::uint64_t>
blockMap(const ExecutionProfile &p, FunctionId fid)
{
    std::map<std::pair<std::uint16_t, std::uint16_t>, std::uint64_t> out;
    for (const auto &e : p.blockEdges(fid))
        EXPECT_TRUE(out.emplace(std::pair(e.from, e.to), e.weight).second)
            << "duplicate block edge " << e.from << "->" << e.to;
    return out;
}

TEST(Profile, RecordsAndMerges)
{
    ExecutionProfile p, q;
    p.onCall(0, 1);
    p.onCall(0, 1);
    p.onCall(1, 2);
    p.onEntry(1);
    q.onCall(0, 1);
    q.onBlockEdge(1, 0, 2);

    p.merge(q);
    const std::map<std::pair<FunctionId, FunctionId>, std::uint64_t>
        calls{{{0, 1}, 3}, {{1, 2}, 1}};
    EXPECT_EQ(callMap(p), calls);
    EXPECT_TRUE(p.callees(9).empty());
    EXPECT_EQ(p.entryCount(1), 1u);
    EXPECT_EQ(p.entryCount(0), 0u);
    EXPECT_EQ(p.entryCount(9), 0u);
    EXPECT_EQ(p.totalCalls(), 4u);
    ASSERT_EQ(p.blockEdges(1).size(), 1u);
    EXPECT_EQ(p.blockEdges(1)[0].from, 0u);
    EXPECT_EQ(p.blockEdges(1)[0].to, 2u);
    EXPECT_EQ(p.blockEdges(1)[0].weight, 1u);
    EXPECT_TRUE(p.blockEdges(7).empty());
    EXPECT_TRUE(p.blockEdges(9).empty());
}

TEST(Profile, DistinctCallees)
{
    ExecutionProfile p;
    p.onCall(5, 1);
    p.onCall(5, 2);
    p.onCall(5, 2);
    p.onCall(6, 1);
    EXPECT_EQ(p.callees(5).size(), 2u);
    EXPECT_EQ(p.callees(6).size(), 1u);
    EXPECT_EQ(p.callees(7).size(), 0u);
}

TEST(Profile, MatchesOrderedReference)
{
    // A seeded mix of events over ~50 functions into two profiles,
    // then merged: every view must equal what ordered maps count.
    constexpr FunctionId functions = 50;
    std::map<std::pair<FunctionId, FunctionId>, std::uint64_t> calls;
    std::map<std::tuple<FunctionId, std::uint16_t, std::uint16_t>,
             std::uint64_t>
        blocks;
    std::map<FunctionId, std::uint64_t> entries;
    std::uint64_t total_calls = 0;

    Rng rng(23);
    ExecutionProfile halves[2];
    for (int i = 0; i < 200'000; ++i) {
        ExecutionProfile &p = halves[rng.nextBelow(2)];
        const auto fid = static_cast<FunctionId>(rng.nextBelow(functions));
        switch (rng.nextBelow(3)) {
          case 0: {
            // Skewed callees: a few hot targets, a long tail.
            const auto callee = static_cast<FunctionId>(
                rng.nextBool(0.7) ? rng.nextBelow(4)
                                  : rng.nextBelow(functions));
            p.onCall(fid, callee);
            ++calls[{fid, callee}];
            ++total_calls;
            break;
          }
          case 1:
            p.onEntry(fid);
            ++entries[fid];
            break;
          default: {
            // Block ids up to 300 so some functions grow the
            // per-block index in several steps.
            const auto bound = 1 + fid * 6;
            const auto from =
                static_cast<std::uint16_t>(rng.nextBelow(bound));
            const auto to = static_cast<std::uint16_t>(
                rng.nextBool(0.8) ? (from + 1) % bound
                                  : rng.nextBelow(bound));
            p.onBlockEdge(fid, from, to);
            ++blocks[{fid, from, to}];
            break;
          }
        }
    }
    ExecutionProfile merged = halves[0];
    merged.merge(halves[1]);
    // Merging into an empty profile copies the other one.
    ExecutionProfile copy;
    copy.merge(merged);

    for (const ExecutionProfile *p : {&merged, &copy}) {
        EXPECT_EQ(p->totalCalls(), total_calls);
        EXPECT_EQ(p->totalCalls(),
                  halves[0].totalCalls() + halves[1].totalCalls());
        EXPECT_EQ(callMap(*p), calls);
        for (FunctionId fid = 0; fid < functions + 2; ++fid) {
            const auto it = entries.find(fid);
            EXPECT_EQ(p->entryCount(fid),
                      it == entries.end() ? 0 : it->second)
                << fid;
            std::map<std::pair<std::uint16_t, std::uint16_t>,
                     std::uint64_t>
                want;
            for (const auto &[key, w] : blocks) {
                if (std::get<0>(key) == fid)
                    want[{std::get<1>(key), std::get<2>(key)}] = w;
            }
            EXPECT_EQ(blockMap(*p, fid), want) << fid;
        }
        const CallGraphAnalyzer a(*p);
        std::map<FunctionId, std::size_t> distinct;
        for (const auto &[edge, w] : calls)
            ++distinct[edge.first];
        EXPECT_EQ(a.callerCount(), distinct.size());
        std::size_t max = 0;
        for (const auto &[fid, n] : distinct)
            max = std::max(max, n);
        EXPECT_EQ(a.maxDistinctCallees(), max);
    }
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
