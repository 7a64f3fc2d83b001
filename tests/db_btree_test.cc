/**
 * @file
 * B+-tree tests: point lookups, range scans, duplicates, splits and
 * tree growth, plus randomized property validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "db/btree.hh"
#include "util/rng.hh"

namespace cgp::db
{
namespace
{

struct TreeFixture
{
    FunctionRegistry reg;
    DbContext ctx{reg};
    Volume vol{ctx};
    BufferPool pool{ctx, vol, 512};
    LockManager locks{ctx};
    BTree tree{ctx, pool, vol, locks};
    TxnId txn = 1;
};

TEST(BTree, EmptySearchMisses)
{
    TreeFixture fx;
    Rid out;
    EXPECT_FALSE(fx.tree.search(fx.txn, 42, out));
    EXPECT_EQ(fx.tree.size(), 0u);
    EXPECT_EQ(fx.tree.height(), 1u);
}

TEST(BTree, InsertThenFind)
{
    TreeFixture fx;
    fx.tree.insert(fx.txn, 10, Rid{1, 2});
    fx.tree.insert(fx.txn, 20, Rid{3, 4});
    Rid out;
    ASSERT_TRUE(fx.tree.search(fx.txn, 10, out));
    EXPECT_EQ(out.page, 1u);
    EXPECT_EQ(out.slot, 2u);
    ASSERT_TRUE(fx.tree.search(fx.txn, 20, out));
    EXPECT_EQ(out.page, 3u);
    EXPECT_FALSE(fx.tree.search(fx.txn, 15, out));
}

TEST(BTree, SplitsGrowTheTree)
{
    TreeFixture fx;
    // More than one leaf's worth of ascending keys.
    const int n = 2000;
    for (int k = 0; k < n; ++k) {
        fx.tree.insert(fx.txn, k,
                       Rid{static_cast<PageId>(k), 0});
    }
    EXPECT_GT(fx.tree.height(), 1u);
    EXPECT_EQ(fx.tree.size(), static_cast<std::uint64_t>(n));
    EXPECT_TRUE(fx.tree.validate(fx.txn));

    Rid out;
    for (int k : {0, 1, 447, 448, 449, 1024, 1999}) {
        ASSERT_TRUE(fx.tree.search(fx.txn, k, out)) << "key " << k;
        EXPECT_EQ(out.page, static_cast<PageId>(k));
    }
}

TEST(BTree, RangeScanReturnsSortedWindow)
{
    TreeFixture fx;
    for (int k = 0; k < 500; ++k)
        fx.tree.insert(fx.txn, k * 2, Rid{static_cast<PageId>(k), 0});

    BTree::RangeScan scan(fx.tree, fx.txn, 100, 140);
    std::vector<std::int32_t> keys;
    std::int32_t k;
    Rid rid;
    while (scan.next(k, rid))
        keys.push_back(k);
    const std::vector<std::int32_t> expect{100, 102, 104, 106, 108,
                                           110, 112, 114, 116, 118,
                                           120, 122, 124, 126, 128,
                                           130, 132, 134, 136, 138,
                                           140};
    EXPECT_EQ(keys, expect);
}

TEST(BTree, RangeScanEmptyWindow)
{
    TreeFixture fx;
    fx.tree.insert(fx.txn, 10, Rid{1, 0});
    fx.tree.insert(fx.txn, 30, Rid{2, 0});
    BTree::RangeScan scan(fx.tree, fx.txn, 15, 25);
    std::int32_t k;
    Rid rid;
    EXPECT_FALSE(scan.next(k, rid));
}

TEST(BTree, DuplicateKeysAllEnumerable)
{
    TreeFixture fx;
    for (std::uint16_t i = 0; i < 5; ++i)
        fx.tree.insert(fx.txn, 77, Rid{9, i});
    fx.tree.insert(fx.txn, 76, Rid{1, 0});
    fx.tree.insert(fx.txn, 78, Rid{2, 0});

    BTree::RangeScan scan(fx.tree, fx.txn, 77, 77);
    std::set<std::uint16_t> slots;
    std::int32_t k;
    Rid rid;
    while (scan.next(k, rid)) {
        EXPECT_EQ(k, 77);
        slots.insert(rid.slot);
    }
    EXPECT_EQ(slots.size(), 5u);
}

TEST(BTree, NegativeKeysOrderCorrectly)
{
    TreeFixture fx;
    for (int k : {-5, 3, -10, 0, 7})
        fx.tree.insert(fx.txn, k, Rid{1, 0});
    BTree::RangeScan scan(fx.tree, fx.txn, -100, 100);
    std::vector<std::int32_t> keys;
    std::int32_t k;
    Rid rid;
    while (scan.next(k, rid))
        keys.push_back(k);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(keys.size(), 5u);
}

class BTreeRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BTreeRandomTest, RandomInsertsStayValid)
{
    TreeFixture fx;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
    std::set<std::int32_t> keys;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        const auto k =
            static_cast<std::int32_t>(rng.nextRange(-50000, 50000));
        fx.tree.insert(fx.txn, k, Rid{static_cast<PageId>(i), 0});
        keys.insert(k);
    }
    EXPECT_EQ(fx.tree.size(), static_cast<std::uint64_t>(n));
    ASSERT_TRUE(fx.tree.validate(fx.txn));

    // Every inserted key is findable; absent keys are not.
    Rng probe(GetParam());
    Rid out;
    for (int i = 0; i < 200; ++i) {
        const auto k = static_cast<std::int32_t>(
            probe.nextRange(-50000, 50000));
        EXPECT_EQ(fx.tree.search(fx.txn, k, out),
                  keys.count(k) > 0)
            << "key " << k;
    }

    // Full scan sees exactly n entries in order.
    BTree::RangeScan scan(fx.tree, fx.txn, -60000, 60000);
    std::int32_t k, prev = -60001;
    Rid rid;
    std::uint64_t seen = 0;
    while (scan.next(k, rid)) {
        EXPECT_GE(k, prev);
        prev = k;
        ++seen;
    }
    EXPECT_EQ(seen, static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeRandomTest,
                         ::testing::Range(1, 6));

TEST(BTree, LocksAreReleasedAfterOperations)
{
    TreeFixture fx;
    for (int k = 0; k < 1000; ++k)
        fx.tree.insert(fx.txn, k, Rid{1, 0});
    Rid out;
    fx.tree.search(fx.txn, 500, out);
    // 2PL bookkeeping: B-tree ops release page locks before
    // returning (latch-style), so nothing is held now.
    EXPECT_EQ(fx.locks.lockCount(fx.txn), 0u);
}

TEST(BTree, NoPinnedPagesLeakAfterScans)
{
    TreeFixture fx;
    for (int k = 0; k < 2000; ++k)
        fx.tree.insert(fx.txn, k, Rid{1, 0});
    {
        BTree::RangeScan scan(fx.tree, fx.txn, 100, 1900);
        std::int32_t k;
        Rid rid;
        for (int i = 0; i < 50; ++i)
            scan.next(k, rid);
        // Destructor closes mid-scan.
    }
    // All frames unpinned: a tiny pool can still evict everything.
    for (PageId p = 0; p < static_cast<PageId>(fx.vol.pageCount());
         ++p) {
        EXPECT_EQ(fx.pool.pinCount(p), 0u) << "page " << p;
    }
}

} // namespace
} // namespace cgp::db

