/**
 * @file
 * Heap file tests: Create_rec / getRec round trips and scan
 * completeness across page boundaries.
 */

#include <gtest/gtest.h>

#include <set>

#include "db/heapfile.hh"

namespace cgp::db
{
namespace
{

struct HeapFixture
{
    FunctionRegistry reg;
    DbContext ctx{reg};
    Volume vol{ctx};
    BufferPool pool{ctx, vol, 256};
    LockManager locks{ctx};
    WriteAheadLog log{ctx};
    Schema schema{{{"id", ColumnType::Int32, 4},
                   {"payload", ColumnType::Char, 64}}};
    HeapFile file{ctx, pool, vol, locks, log, &schema};
    TxnId txn = 1;

    Tuple
    makeRow(std::int32_t id)
    {
        Tuple t(&schema);
        t.setInt(0, id);
        t.setString(1, "row" + std::to_string(id));
        return t;
    }
};

TEST(HeapFile, CreateAndGetRoundTrip)
{
    HeapFixture fx;
    const Rid rid = fx.file.createRec(fx.txn, fx.makeRow(42));
    ASSERT_TRUE(rid.valid());
    const Tuple t = fx.file.getRec(fx.txn, rid);
    EXPECT_EQ(t.getInt(0), 42);
    EXPECT_EQ(t.getString(1), "row42");
    EXPECT_EQ(fx.file.recordCount(), 1u);
}

TEST(HeapFile, SpillsAcrossPages)
{
    HeapFixture fx;
    // 68-byte records: ~113 per 8KB page; insert 500 -> 5 pages.
    for (int i = 0; i < 500; ++i)
        fx.file.createRec(fx.txn, fx.makeRow(i));
    EXPECT_GE(fx.file.pageCount(), 4u);
    EXPECT_EQ(fx.file.recordCount(), 500u);
}

TEST(HeapFile, ScanSeesEveryRecordOnce)
{
    HeapFixture fx;
    const int n = 400;
    for (int i = 0; i < n; ++i)
        fx.file.createRec(fx.txn, fx.makeRow(i));

    HeapFile::Scan scan(fx.file, fx.txn);
    std::set<std::int32_t> seen;
    Tuple t;
    Rid rid;
    while (scan.next(t, &rid)) {
        EXPECT_TRUE(rid.valid());
        EXPECT_TRUE(seen.insert(t.getInt(0)).second)
            << "duplicate id " << t.getInt(0);
    }
    scan.close();
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), n - 1);
}

TEST(HeapFile, ScanRidsResolveViaGetRec)
{
    HeapFixture fx;
    for (int i = 0; i < 50; ++i)
        fx.file.createRec(fx.txn, fx.makeRow(i));
    HeapFile::Scan scan(fx.file, fx.txn);
    Tuple t;
    Rid rid;
    while (scan.next(t, &rid)) {
        const Tuple u = fx.file.getRec(fx.txn, rid);
        EXPECT_EQ(u.getInt(0), t.getInt(0));
    }
    scan.close();
}

TEST(HeapFile, EarlyScanCloseUnpins)
{
    HeapFixture fx;
    for (int i = 0; i < 300; ++i)
        fx.file.createRec(fx.txn, fx.makeRow(i));
    {
        HeapFile::Scan scan(fx.file, fx.txn);
        Tuple t;
        scan.next(t);
        // Destructor closes with a page fixed.
    }
    for (std::size_t p = 0; p < fx.file.pageCount(); ++p)
        EXPECT_EQ(fx.pool.pinCount(fx.file.pageAt(p)), 0u);
    EXPECT_EQ(fx.locks.lockCount(fx.txn), 0u);
}

TEST(HeapFile, LogsEveryInsert)
{
    HeapFixture fx;
    const auto before = fx.log.records().size();
    fx.file.createRec(fx.txn, fx.makeRow(1));
    fx.file.createRec(fx.txn, fx.makeRow(2));
    EXPECT_EQ(fx.log.records().size(), before + 2);
    EXPECT_EQ(fx.log.records().back().type, LogRecordType::Insert);
}

} // namespace
} // namespace cgp::db
