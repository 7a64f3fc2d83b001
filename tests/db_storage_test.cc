/**
 * @file
 * Tests for the storage-manager substrate: slotted pages, tuples,
 * the volume, buffer pool (pinning, eviction, write-back), lock
 * manager, write-ahead log and transactions.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "db/buffer_pool.hh"
#include "db/context.hh"
#include "db/lock.hh"
#include "db/page.hh"
#include "db/tuple.hh"
#include "db/txn.hh"
#include "db/volume.hh"
#include "db/wal.hh"

namespace cgp::db
{
namespace
{

struct Fixture
{
    FunctionRegistry reg;
    DbContext ctx{reg};
};

TEST(Tuple, SchemaLayout)
{
    const Schema s({{"a", ColumnType::Int32, 4},
                    {"b", ColumnType::Char, 8},
                    {"c", ColumnType::Int32, 4}});
    EXPECT_EQ(s.columnCount(), 3u);
    EXPECT_EQ(s.recordBytes(), 16u);
    EXPECT_EQ(s.offsetOf(0), 0u);
    EXPECT_EQ(s.offsetOf(1), 4u);
    EXPECT_EQ(s.offsetOf(2), 12u);
    EXPECT_EQ(s.indexOf("b"), 1u);
}

TEST(Tuple, RoundTripValues)
{
    const Schema s({{"a", ColumnType::Int32, 4},
                    {"b", ColumnType::Char, 8}});
    Tuple t(&s);
    t.setInt(0, -12345);
    t.setString(1, "hello");
    EXPECT_EQ(t.getInt(0), -12345);
    EXPECT_EQ(t.getString(1), "hello");

    // Reconstruct from raw bytes.
    Tuple u(&s, t.data());
    EXPECT_EQ(u.getInt(0), -12345);
    EXPECT_EQ(u.getString(1), "hello");
}

TEST(Tuple, StringTruncatesToWidth)
{
    const Schema s({{"b", ColumnType::Char, 4}});
    Tuple t(&s);
    t.setString(0, "abcdefgh");
    EXPECT_EQ(t.getString(0), "abcd");
}

TEST(Tuple, Concat)
{
    const Schema a({{"x", ColumnType::Int32, 4}});
    const Schema b({{"y", ColumnType::Int32, 4}});
    const Schema ab = concatSchemas(a, b);
    Tuple ta(&a), tb(&b);
    ta.setInt(0, 7);
    tb.setInt(0, 9);
    const Tuple t = concatTuples(&ab, ta, tb);
    EXPECT_EQ(t.getInt(0), 7);
    EXPECT_EQ(t.getInt(1), 9);
}

TEST(SlottedPage, InsertAndRead)
{
    std::vector<std::uint8_t> frame(pageBytes, 0);
    SlottedPage page(frame.data());
    page.init();
    EXPECT_EQ(page.slotCount(), 0u);

    const char rec1[] = "record-one";
    const char rec2[] = "record-two!";
    const auto s1 = page.insert(
        reinterpret_cast<const std::uint8_t *>(rec1), sizeof(rec1));
    const auto s2 = page.insert(
        reinterpret_cast<const std::uint8_t *>(rec2), sizeof(rec2));
    ASSERT_NE(s1, SlottedPage::invalidSlot);
    ASSERT_NE(s2, SlottedPage::invalidSlot);
    EXPECT_EQ(page.slotCount(), 2u);

    std::uint16_t len = 0;
    const auto *p1 = page.read(s1, &len);
    ASSERT_NE(p1, nullptr);
    EXPECT_EQ(len, sizeof(rec1));
    EXPECT_EQ(std::memcmp(p1, rec1, len), 0);

    EXPECT_EQ(page.read(99), nullptr);
}

TEST(SlottedPage, FillsUntilFull)
{
    std::vector<std::uint8_t> frame(pageBytes, 0);
    SlottedPage page(frame.data());
    page.init();
    std::uint8_t rec[100] = {0};
    unsigned inserted = 0;
    while (page.insert(rec, sizeof(rec)) != SlottedPage::invalidSlot)
        ++inserted;
    // ~8KB / (100B + 4B slot) ~ 78 records.
    EXPECT_GE(inserted, 70u);
    EXPECT_LE(inserted, 81u);
    EXPECT_FALSE(page.fits(sizeof(rec)));
}

TEST(Volume, AllocReadWrite)
{
    Fixture fx;
    Volume vol(fx.ctx);
    const PageId p = vol.allocPage();
    EXPECT_EQ(vol.pageCount(), 1u);

    std::vector<std::uint8_t> w(pageBytes, 0xAB), r(pageBytes, 0);
    vol.writePage(p, w.data());
    vol.readPage(p, r.data());
    EXPECT_EQ(r, w);
}

TEST(BufferPool, FixPinsAndCaches)
{
    Fixture fx;
    Volume vol(fx.ctx);
    BufferPool pool(fx.ctx, vol, 8);
    const PageId p = vol.allocPage();

    std::uint8_t *f1 = pool.fix(p);
    ASSERT_NE(f1, nullptr);
    EXPECT_EQ(pool.pinCount(p), 1u);
    EXPECT_EQ(pool.diskReads(), 1u);

    std::uint8_t *f2 = pool.fix(p);
    EXPECT_EQ(f1, f2);            // same frame
    EXPECT_EQ(pool.pinCount(p), 2u);
    EXPECT_EQ(pool.diskReads(), 1u); // no re-read

    pool.unfix(p, false);
    pool.unfix(p, false);
    EXPECT_EQ(pool.pinCount(p), 0u);
    EXPECT_EQ(pool.residentPages(), 1u); // still cached
}

TEST(BufferPool, EvictsLruUnpinned)
{
    Fixture fx;
    Volume vol(fx.ctx);
    BufferPool pool(fx.ctx, vol, 2);
    const PageId a = vol.allocPage();
    const PageId b = vol.allocPage();
    const PageId c = vol.allocPage();

    pool.fix(a);
    pool.unfix(a, false);
    pool.fix(b);
    pool.unfix(b, false);
    pool.fix(a); // a more recent than b
    pool.unfix(a, false);

    pool.fix(c); // evicts b (LRU)
    pool.unfix(c, false);
    EXPECT_EQ(pool.evictions(), 1u);

    const auto reads_before = pool.diskReads();
    pool.fix(a); // still resident
    pool.unfix(a, false);
    EXPECT_EQ(pool.diskReads(), reads_before);
    pool.fix(b); // was evicted: re-read
    pool.unfix(b, false);
    EXPECT_EQ(pool.diskReads(), reads_before + 1);
}

TEST(BufferPool, DirtyEvictionWritesBack)
{
    Fixture fx;
    Volume vol(fx.ctx);
    BufferPool pool(fx.ctx, vol, 1);
    const PageId a = vol.allocPage();
    const PageId b = vol.allocPage();

    std::uint8_t *fa = pool.fix(a);
    fa[100] = 0x5A;
    pool.unfix(a, true); // dirty

    pool.fix(b); // forces write-back of a
    pool.unfix(b, false);

    std::vector<std::uint8_t> img(pageBytes, 0);
    vol.readPage(a, img.data());
    EXPECT_EQ(img[100], 0x5A);
}

TEST(BufferPool, FlushAllPersistsDirtyFrames)
{
    Fixture fx;
    Volume vol(fx.ctx);
    BufferPool pool(fx.ctx, vol, 4);
    const PageId a = vol.allocPage();
    std::uint8_t *fa = pool.fix(a);
    fa[7] = 0x77;
    pool.unfix(a, true);
    pool.flushAll();
    std::vector<std::uint8_t> img(pageBytes, 0);
    vol.readPage(a, img.data());
    EXPECT_EQ(img[7], 0x77);
}

TEST(BufferPool, FrameAddrIsStableAndInSegment)
{
    Fixture fx;
    Volume vol(fx.ctx);
    BufferPool pool(fx.ctx, vol, 4, 0x5000'0000);
    const PageId a = vol.allocPage();
    pool.fix(a);
    const Addr addr = pool.frameAddr(a, 128);
    EXPECT_GE(addr, 0x5000'0000u);
    EXPECT_LT(addr, 0x5000'0000u + 4 * pageBytes);
    pool.unfix(a, false);
}

TEST(BufferPool, NeverEvictsPinned)
{
    Fixture fx;
    Volume vol(fx.ctx);
    BufferPool pool(fx.ctx, vol, 2);
    const PageId a = vol.allocPage();
    const PageId b = vol.allocPage();
    const PageId c = vol.allocPage();
    pool.fix(a); // stays pinned, and is the least recently used
    pool.fix(b);
    pool.unfix(b, false);
    pool.fix(c); // must evict b, not a
    EXPECT_EQ(pool.pinCount(a), 1u);
    pool.unfix(c, false);
    pool.unfix(a, false);
}

TEST(LockManager, AcquireReleaseAndUpgrade)
{
    Fixture fx;
    LockManager locks(fx.ctx);
    EXPECT_TRUE(locks.acquire(1, 10, LockMode::Shared));
    EXPECT_TRUE(locks.holds(1, 10));
    EXPECT_EQ(locks.modeOf(1, 10), LockMode::Shared);

    // Re-acquire exclusively: upgrade.
    EXPECT_TRUE(locks.acquire(1, 10, LockMode::Exclusive));
    EXPECT_EQ(locks.modeOf(1, 10), LockMode::Exclusive);
    EXPECT_EQ(locks.lockCount(1), 1u);

    locks.release(1, 10);
    EXPECT_FALSE(locks.holds(1, 10));
}

TEST(LockManager, ReleaseAllClearsEverything)
{
    Fixture fx;
    LockManager locks(fx.ctx);
    for (PageId p = 0; p < 5; ++p)
        locks.acquire(7, p, LockMode::Shared);
    locks.acquire(8, 2, LockMode::Shared);
    EXPECT_EQ(locks.lockCount(7), 5u);

    locks.releaseAll(7);
    EXPECT_EQ(locks.lockCount(7), 0u);
    for (PageId p = 0; p < 5; ++p)
        EXPECT_FALSE(locks.holds(7, p));
    EXPECT_TRUE(locks.holds(8, 2)); // untouched
}

TEST(Wal, AppendsMonotonicLsns)
{
    Fixture fx;
    WriteAheadLog log(fx.ctx);
    const Lsn a = log.append(1, LogRecordType::Begin);
    const Lsn b = log.append(1, LogRecordType::Insert, 4, 2);
    EXPECT_LT(a, b);
    EXPECT_EQ(log.records().size(), 2u);
    EXPECT_EQ(log.records()[1].page, 4u);
    EXPECT_EQ(log.records()[1].slot, 2u);

    EXPECT_EQ(log.durableLsn(), 0u);
    log.force(b);
    EXPECT_EQ(log.durableLsn(), b);
}

TEST(Txn, CommitForcesLogAndReleasesLocks)
{
    Fixture fx;
    LockManager locks(fx.ctx);
    WriteAheadLog log(fx.ctx);
    TransactionManager txns(fx.ctx, locks, log);

    const TxnId t = txns.begin();
    EXPECT_EQ(txns.active(), 1u);
    locks.acquire(t, 3, LockMode::Exclusive);
    const Lsn before = log.durableLsn();

    txns.commit(t);
    EXPECT_EQ(txns.active(), 0u);
    EXPECT_FALSE(locks.holds(t, 3));
    EXPECT_GT(log.durableLsn(), before);
}

TEST(Txn, CommitRejectsUnknownAndFinishedIds)
{
    Fixture fx;
    LockManager locks(fx.ctx);
    WriteAheadLog log(fx.ctx);
    TransactionManager txns(fx.ctx, locks, log);

    EXPECT_FALSE(txns.commit(42)); // never begun
    EXPECT_FALSE(txns.stateOf(42).has_value());

    const TxnId t = txns.begin();
    EXPECT_TRUE(txns.isActive(t));
    EXPECT_EQ(txns.stateOf(t), TxnState::Active);
    EXPECT_EQ(txns.active(), 1u);
    EXPECT_TRUE(txns.commit(t));
    EXPECT_EQ(txns.stateOf(t), TxnState::Committed);
    EXPECT_EQ(txns.active(), 0u);

    // A rejected commit leaves the log and the active count alone.
    const std::size_t records = log.records().size();
    EXPECT_FALSE(txns.commit(t)); // double commit
    EXPECT_FALSE(txns.commit(42));
    EXPECT_EQ(txns.active(), 0u);
    EXPECT_EQ(log.records().size(), records);
}

} // namespace
} // namespace cgp::db
