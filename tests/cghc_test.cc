/**
 * @file
 * Tests for the Call Graph History Cache — the exact §3.2 semantics:
 * index arithmetic on calls and returns, allocation on miss, the
 * 8-slot cap, the two-level swap, and the infinite variant.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "prefetch/cghc.hh"

namespace cgp
{

// Without a printer gtest names each CghcGeometryTest case by the raw
// bytes of its parameter, padding included, so the names changed from
// run to run.
void
PrintTo(const CghcConfig &c, std::ostream *os)
{
    *os << c.describe();
}

namespace
{

// Function start addresses (32-byte aligned, like the layouts).
constexpr Addr F = 0x400000;
constexpr Addr G = 0x400100;
constexpr Addr H = 0x400200;
constexpr Addr I = 0x400300;

TEST(Cghc, MissAllocatesWithoutPrefetching)
{
    Cghc cghc(CghcConfig::oneLevel1K());
    const auto r = cghc.callPrefetchAccess(G);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.prefetchTarget, invalidAddr);
    // The entry now exists: a second access hits (still nothing
    // recorded to prefetch).
    const auto r2 = cghc.callPrefetchAccess(G);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.prefetchTarget, invalidAddr);
}

TEST(Cghc, CallUpdateMissDepositsFirstCallee)
{
    // Paper §3.2: a miss on the update access for a call seeds
    // slot 1 with the callee.
    Cghc cghc(CghcConfig::oneLevel1K());
    cghc.callUpdateAccess(F, G);
    // F's entry now predicts G... but only at index 1, which a
    // return into F reads after the index reset.
    cghc.returnUpdateAccess(F);
    const auto r = cghc.returnPrefetchAccess(F);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.prefetchTarget, G);
}

TEST(Cghc, LearnsCallSequenceAcrossInvocations)
{
    // First invocation of F: calls G then H; CGHC records them.
    Cghc cghc(CghcConfig::twoLevel2K32K());

    // invocation 1: F calls G, G returns, F calls H, H returns,
    // F returns.
    cghc.callPrefetchAccess(G);
    cghc.callUpdateAccess(F, G);   // slot1 = G, index -> 2
    cghc.returnPrefetchAccess(F);  // predicts slot2: empty yet
    cghc.returnUpdateAccess(G);
    cghc.callPrefetchAccess(H);
    cghc.callUpdateAccess(F, H);   // slot2 = H
    cghc.returnPrefetchAccess(F);
    cghc.returnUpdateAccess(H);
    cghc.returnUpdateAccess(F);    // F's index resets to 1

    // invocation 2: on the call into F (predicted target F), the
    // prefetch access reads F's slot 1 = G.
    const auto on_entry = cghc.callPrefetchAccess(F);
    EXPECT_TRUE(on_entry.hit);
    EXPECT_EQ(on_entry.prefetchTarget, G);

    // F calls G; G returns; the return access into F now predicts H.
    cghc.callUpdateAccess(F, G); // index -> 2
    const auto after_g = cghc.returnPrefetchAccess(F);
    EXPECT_TRUE(after_g.hit);
    EXPECT_EQ(after_g.prefetchTarget, H);
}

TEST(Cghc, ReturnUpdateResetsIndex)
{
    Cghc cghc(CghcConfig::oneLevel32K());
    cghc.callUpdateAccess(F, G);
    cghc.callUpdateAccess(F, H); // index now 3
    cghc.returnUpdateAccess(F);  // reset
    // Return access into F reads slot 1 again.
    const auto r = cghc.returnPrefetchAccess(F);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.prefetchTarget, G);
}

TEST(Cghc, OnlyFirstEightCalleesStored)
{
    Cghc cghc(CghcConfig::oneLevel32K());
    // F calls 10 distinct functions.
    for (Addr callee = 0x500000; callee < 0x500000 + 10 * 0x40;
         callee += 0x40) {
        cghc.callUpdateAccess(F, callee);
    }
    cghc.returnUpdateAccess(F);

    // Replay: slots 1..8 are the first 8 callees; the 9th/10th were
    // dropped.
    for (int k = 0; k < 8; ++k) {
        const auto r = cghc.returnPrefetchAccess(F);
        ASSERT_TRUE(r.hit);
        EXPECT_EQ(r.prefetchTarget,
                  0x500000u + static_cast<Addr>(k) * 0x40)
            << "slot " << k + 1;
        cghc.callUpdateAccess(F, r.prefetchTarget); // advance index
    }
}

TEST(Cghc, DirectMappedConflictEvicts)
{
    // 1KB = 32 entries; two function starts 32 entries apart in set
    // index collide.
    Cghc cghc(CghcConfig::oneLevel1K());
    const Addr a = 0x400000;
    const Addr b = a + 32u * 32u; // same set (tag >> 5 % 32)
    cghc.callPrefetchAccess(a);   // allocate a
    EXPECT_TRUE(cghc.callPrefetchAccess(a).hit);
    cghc.callPrefetchAccess(b);   // allocate b, evicting a
    EXPECT_FALSE(cghc.callPrefetchAccess(a).hit);
}

TEST(Cghc, TwoLevelRetainsDisplacedEntries)
{
    // Same conflict as above, but the second level catches the
    // victim, so re-access hits (with the L2 latency).
    Cghc cghc(CghcConfig::twoLevel1K16K());
    const Addr a = 0x400000;
    const Addr b = a + 32u * 32u;
    cghc.callUpdateAccess(a, G);
    cghc.returnUpdateAccess(a);
    cghc.callPrefetchAccess(b); // displaces a to L2

    const auto r = cghc.callPrefetchAccess(a);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.prefetchTarget, G);
    EXPECT_GT(r.delay, 1u); // came from the second level
    // After the swap, it is back in the first level.
    const auto r2 = cghc.callPrefetchAccess(a);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.delay, 1u);
}

TEST(Cghc, InfiniteKeepsFullSequences)
{
    Cghc cghc(CghcConfig::infiniteSize());
    // F calls 12 functions — more than the finite 8-slot cap.
    std::vector<Addr> callees;
    for (int i = 0; i < 12; ++i)
        callees.push_back(0x600000 + static_cast<Addr>(i) * 0x40);
    for (Addr c : callees)
        cghc.callUpdateAccess(F, c);
    cghc.returnUpdateAccess(F);

    for (const Addr expected : callees) {
        const auto r = cghc.returnPrefetchAccess(F);
        ASSERT_TRUE(r.hit);
        EXPECT_EQ(r.prefetchTarget, expected);
        cghc.callUpdateAccess(F, expected);
    }
}

TEST(Cghc, InfiniteNeverConflicts)
{
    Cghc cghc(CghcConfig::infiniteSize());
    for (Addr f = 0x400000; f < 0x400000 + 4096 * 0x20; f += 0x20)
        cghc.callUpdateAccess(f, G);
    // Every one of the 4096 entries is still present.
    for (Addr f = 0x400000; f < 0x400000 + 4096 * 0x20; f += 0x20) {
        cghc.returnUpdateAccess(f);
        EXPECT_TRUE(cghc.returnPrefetchAccess(f).hit);
    }
}

TEST(Cghc, StatsCountAccessesAndHits)
{
    Cghc cghc(CghcConfig::twoLevel2K32K());
    cghc.callPrefetchAccess(G); // miss + alloc
    cghc.callPrefetchAccess(G); // hit
    cghc.returnPrefetchAccess(G); // hit
    EXPECT_EQ(cghc.accesses(), 3u);
    EXPECT_EQ(cghc.hits(), 2u);
}

class CghcGeometryTest
    : public ::testing::TestWithParam<CghcConfig>
{
};

TEST_P(CghcGeometryTest, SequencePredictionWorksEverywhere)
{
    Cghc cghc(GetParam());
    // Train F -> (G, H, I) twice, then verify the full prediction
    // chain on a third pass.
    for (int pass = 0; pass < 2; ++pass) {
        cghc.callPrefetchAccess(F);
        for (Addr c : {G, H, I}) {
            cghc.callPrefetchAccess(c);
            cghc.callUpdateAccess(F, c);
            cghc.returnPrefetchAccess(F);
            cghc.returnUpdateAccess(c);
        }
        cghc.returnUpdateAccess(F);
    }

    const auto entry = cghc.callPrefetchAccess(F);
    ASSERT_TRUE(entry.hit);
    EXPECT_EQ(entry.prefetchTarget, G);
    cghc.callUpdateAccess(F, G);
    EXPECT_EQ(cghc.returnPrefetchAccess(F).prefetchTarget, H);
    cghc.callUpdateAccess(F, H);
    EXPECT_EQ(cghc.returnPrefetchAccess(F).prefetchTarget, I);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CghcGeometryTest,
    ::testing::Values(CghcConfig::oneLevel1K(),
                      CghcConfig::oneLevel32K(),
                      CghcConfig::twoLevel1K16K(),
                      CghcConfig::twoLevel2K32K(),
                      CghcConfig::infiniteSize()));

TEST(Cghc, AssociativityAvoidsConflictEviction)
{
    // The direct-mapped conflict pair from above coexists in a
    // 2-way CGHC.
    CghcConfig cfg = CghcConfig::oneLevel1K();
    cfg.assoc = 2;
    Cghc cghc(cfg);
    const Addr a = 0x400000;
    const Addr b = a + 16u * 32u; // same set at 16 sets x 2 ways
    cghc.callPrefetchAccess(a);
    cghc.callPrefetchAccess(b);
    EXPECT_TRUE(cghc.callPrefetchAccess(a).hit);
    EXPECT_TRUE(cghc.callPrefetchAccess(b).hit);
}

TEST(Cghc, AssociativeLruEvictsColdest)
{
    CghcConfig cfg = CghcConfig::oneLevel1K();
    cfg.assoc = 2;
    cfg.l2Bytes = 0;
    Cghc cghc(cfg);
    const Addr set_stride = 16u * 32u; // 16 sets
    const Addr a = 0x400000;
    const Addr b = a + set_stride;
    const Addr c = a + 2 * set_stride;
    cghc.callPrefetchAccess(a);
    cghc.callPrefetchAccess(b);
    cghc.callPrefetchAccess(a); // refresh a
    cghc.callPrefetchAccess(c); // evicts b (LRU)
    EXPECT_TRUE(cghc.callPrefetchAccess(a).hit);
    EXPECT_FALSE(cghc.callPrefetchAccess(b).hit);
}

TEST(CghcConfig, DescribeStrings)
{
    EXPECT_EQ(CghcConfig::oneLevel1K().describe(), "CGHC-1K");
    EXPECT_EQ(CghcConfig::oneLevel32K().describe(), "CGHC-32K");
    EXPECT_EQ(CghcConfig::twoLevel1K16K().describe(), "CGHC-1K+16K");
    EXPECT_EQ(CghcConfig::twoLevel2K32K().describe(), "CGHC-2K+32K");
    EXPECT_EQ(CghcConfig::infiniteSize().describe(), "CGHC-Inf");
    CghcConfig assoc = CghcConfig::twoLevel2K32K();
    assoc.assoc = 4;
    EXPECT_EQ(assoc.describe(), "CGHC-2K+32K-4way");
}

} // namespace
} // namespace cgp
