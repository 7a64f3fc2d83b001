/**
 * @file
 * Tests for the branch prediction hardware, including the paper's
 * modified return address stack.
 */

#include <gtest/gtest.h>

#include "branch/predictor.hh"

namespace cgp
{
namespace
{

TEST(TwoLevel, LearnsBiasedBranch)
{
    TwoLevelPredictor pred(11);
    const Addr pc = 0x400100;
    // Train strongly taken.
    for (int i = 0; i < 64; ++i)
        pred.update(pc, true);
    EXPECT_TRUE(pred.predict(pc));
    for (int i = 0; i < 64; ++i)
        pred.update(pc, false);
    EXPECT_FALSE(pred.predict(pc));
}

TEST(TwoLevel, LearnsAlternatingPattern)
{
    TwoLevelPredictor pred(11);
    const Addr pc = 0x400200;
    // Warm up on a strict alternation; the global history lets the
    // two-level predictor capture it.
    bool taken = false;
    for (int i = 0; i < 400; ++i) {
        pred.update(pc, taken);
        taken = !taken;
    }
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        if (pred.predict(pc) == taken)
            ++correct;
        pred.update(pc, taken);
        taken = !taken;
    }
    EXPECT_GT(correct, 90);
}

TEST(Btb, StoresAndEvicts)
{
    Btb btb(16, 4); // 4 sets x 4 ways
    Addr target = 0;
    EXPECT_FALSE(btb.lookup(0x1000, target));
    btb.update(0x1000, 0x2000);
    ASSERT_TRUE(btb.lookup(0x1000, target));
    EXPECT_EQ(target, 0x2000u);

    // Overwrite with a new target.
    btb.update(0x1000, 0x3000);
    ASSERT_TRUE(btb.lookup(0x1000, target));
    EXPECT_EQ(target, 0x3000u);

    // Flood one set (pcs differing only above the set bits) to force
    // LRU eviction of the oldest entry.
    for (int i = 1; i <= 4; ++i)
        btb.update(0x1000 + (i << 6), 0x9000 + i);
    EXPECT_FALSE(btb.lookup(0x1000, target));
}

TEST(Ras, PushPopLifo)
{
    ReturnAddressStack ras(8);
    EXPECT_TRUE(ras.empty());
    ras.push(0x100, 0xA00);
    ras.push(0x200, 0xB00);
    auto e = ras.pop();
    EXPECT_EQ(e.returnAddr, 0x200u);
    EXPECT_EQ(e.callerFuncStart, 0xB00u);
    e = ras.pop();
    EXPECT_EQ(e.returnAddr, 0x100u);
    EXPECT_EQ(e.callerFuncStart, 0xA00u);
    EXPECT_TRUE(ras.empty());
}

TEST(Ras, PopOnEmptyYieldsInvalid)
{
    ReturnAddressStack ras(4);
    const auto e = ras.pop();
    EXPECT_EQ(e.returnAddr, invalidAddr);
    EXPECT_EQ(e.callerFuncStart, invalidAddr);
}

TEST(Ras, OverflowWrapsAround)
{
    ReturnAddressStack ras(4);
    for (Addr i = 1; i <= 6; ++i)
        ras.push(i * 0x10, i * 0x100);
    EXPECT_EQ(ras.size(), 4u);
    // The newest four survive: 6, 5, 4, 3.
    EXPECT_EQ(ras.pop().returnAddr, 0x60u);
    EXPECT_EQ(ras.pop().returnAddr, 0x50u);
    EXPECT_EQ(ras.pop().returnAddr, 0x40u);
    EXPECT_EQ(ras.pop().returnAddr, 0x30u);
    EXPECT_TRUE(ras.empty());
}

TEST(BranchUnit, CallPushesCallerStartOntoRas)
{
    BranchUnit bu(BranchPredictorConfig{});
    // A call from function F (start 0xF000) at pc 0xF010.
    bu.predictCall(0xF010, 0xA000, 0xF000);
    // The matching return: target = pc + 4, and the modified RAS
    // yields the caller's start address (paper §3.2).
    const auto p = bu.predictReturn(0xA040, 0xF014);
    EXPECT_TRUE(p.targetKnown);
    EXPECT_EQ(p.target, 0xF014u);
    EXPECT_EQ(p.callerFuncStart, 0xF000u);
}

TEST(BranchUnit, ColdCallMispredictsThenLearns)
{
    BranchUnit bu(BranchPredictorConfig{});
    const auto before = bu.mispredicts();
    bu.predictCall(0x1000, 0x2000, 0x900);
    EXPECT_EQ(bu.mispredicts(), before + 1); // BTB cold
    bu.predictReturn(0x2004, 0x1004);

    const auto p = bu.predictCall(0x1000, 0x2000, 0x900);
    EXPECT_TRUE(p.targetKnown);
    EXPECT_EQ(p.target, 0x2000u);
    EXPECT_EQ(bu.mispredicts(), before + 1); // now predicted
}

TEST(BranchUnit, ReturnMispredictOnRasMismatch)
{
    BranchUnit bu(BranchPredictorConfig{});
    bu.predictCall(0x1000, 0x2000, 0x900);
    const auto before = bu.mispredicts();
    // Return to somewhere other than pc+4.
    const auto p = bu.predictReturn(0x2004, 0xBEEF);
    EXPECT_NE(p.target, 0xBEEFu);
    EXPECT_EQ(bu.mispredicts(), before + 1);
}

TEST(BranchUnit, ConditionalStatsAccumulate)
{
    BranchUnit bu(BranchPredictorConfig{});
    for (int i = 0; i < 100; ++i)
        bu.predictConditional(0x3000, true, 0x3100);
    EXPECT_EQ(bu.lookups(), 100u);
    // After warmup the biased branch predicts well.
    EXPECT_LT(bu.mispredicts(), 20u);
}

TEST(BranchUnit, JumpUsesTheBtb)
{
    BranchUnit bu(BranchPredictorConfig{});
    auto p = bu.predictJump(0x5000, 0x6000);
    EXPECT_FALSE(p.targetKnown); // cold
    p = bu.predictJump(0x5000, 0x6000);
    EXPECT_TRUE(p.targetKnown);
    EXPECT_EQ(p.target, 0x6000u);
}

class PredictorSizeTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PredictorSizeTest, BiasedStreamsPredictWellAtAnySize)
{
    TwoLevelPredictor pred(GetParam());
    // 64 branch sites, each strongly biased one way.
    int correct = 0, total = 0;
    for (int round = 0; round < 50; ++round) {
        for (Addr site = 0; site < 64; ++site) {
            const Addr pc = 0x400000 + (site << 4);
            const bool taken = (site % 2) == 0;
            if (round > 10) {
                ++total;
                correct += pred.predict(pc) == taken ? 1 : 0;
            }
            pred.update(pc, taken);
        }
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.80)
        << "PHT bits " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PhtSizes, PredictorSizeTest,
                         ::testing::Values(8u, 10u, 11u, 14u));

TEST(BranchUnit, RasDepthBoundsNesting)
{
    BranchPredictorConfig cfg;
    cfg.rasEntries = 4;
    BranchUnit bu(cfg);
    // Nest 6 calls; only the innermost 4 returns predict correctly.
    for (Addr d = 0; d < 6; ++d)
        bu.predictCall(0x1000 + d * 0x100, 0x8000 + d * 0x100,
                       0x1000 + d * 0x100);
    int correct = 0;
    for (int d = 5; d >= 0; --d) {
        const Addr expect = 0x1000 + static_cast<Addr>(d) * 0x100 + 4;
        const auto p = bu.predictReturn(0x9000, expect);
        correct += (p.targetKnown && p.target == expect) ? 1 : 0;
    }
    EXPECT_EQ(correct, 4);
}

} // namespace
} // namespace cgp
