/**
 * @file
 * Relational-operator tests: result correctness of scans, index
 * selections, both join algorithms (checked against a hand count),
 * aggregation and sort.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "db/dbsys.hh"
#include "db/ops/aggregate.hh"
#include "db/ops/executor.hh"
#include "db/ops/index_select.hh"
#include "db/ops/joins.hh"
#include "db/ops/scan.hh"
#include "db/ops/sort.hh"

namespace cgp::db
{
namespace
{

struct OpsFixture
{
    FunctionRegistry reg;
    DbSystem db{reg};
    TxnId txn = 0;

    OpsFixture()
    {
        Schema s({{"k", ColumnType::Int32, 4},
                  {"v", ColumnType::Int32, 4},
                  {"grp", ColumnType::Int32, 4}});
        db.createTable("t", s);
        db.createTable("u", s);

        txn = db.txns().begin();
        // t: k = 0..99, v = k*10, grp = k%4
        for (int k = 0; k < 100; ++k) {
            Tuple t(db.catalog().table("t").schema.get());
            t.setInt(0, k);
            t.setInt(1, k * 10);
            t.setInt(2, k % 4);
            db.insertRow(txn, "t", t);
        }
        // u: k = 50..149 (half overlaps t)
        for (int k = 50; k < 150; ++k) {
            Tuple t(db.catalog().table("u").schema.get());
            t.setInt(0, k);
            t.setInt(1, k);
            t.setInt(2, 0);
            db.insertRow(txn, "u", t);
        }
        db.createIndex("t", "k");
        db.createIndex("u", "k");
    }

    HeapFile &tfile() { return *db.catalog().table("t").file; }
    HeapFile &ufile() { return *db.catalog().table("u").file; }
};

std::uint64_t
drain(Operator &op)
{
    op.open();
    Tuple t;
    std::uint64_t rows = 0;
    while (op.next(t))
        ++rows;
    op.close();
    return rows;
}

TEST(SeqScanOp, FullScanAndPredicate)
{
    OpsFixture fx;
    SeqScan all(fx.db.ctx(), fx.tfile(), fx.txn);
    EXPECT_EQ(drain(all), 100u);

    Predicate p;
    p.andInt(0, CmpOp::Between, 10, 19);
    SeqScan ranged(fx.db.ctx(), fx.tfile(), fx.txn, p);
    EXPECT_EQ(drain(ranged), 10u);

    Predicate conj;
    conj.andInt(0, CmpOp::Ge, 50);
    conj.andInt(2, CmpOp::Eq, 1);
    SeqScan both(fx.db.ctx(), fx.tfile(), fx.txn, conj);
    EXPECT_EQ(drain(both), 12u); // k in {53,57,...,97}
}

TEST(IndexSelectOp, MatchesSeqScanResults)
{
    OpsFixture fx;
    // The same range via index and via scan must agree.
    for (auto [lo, hi] : {std::pair<int, int>{0, 9},
                          {40, 60},
                          {95, 99},
                          {99, 99},
                          {150, 160}}) {
        IndexSelect idx(fx.db.ctx(), fx.db.catalog().index("t", "k"),
                        fx.tfile(), fx.txn, lo, hi);
        Predicate p;
        p.andInt(0, CmpOp::Between, lo, hi);
        SeqScan scan(fx.db.ctx(), fx.tfile(), fx.txn, p);
        EXPECT_EQ(drain(idx), drain(scan))
            << "range [" << lo << "," << hi << "]";
    }
}

TEST(IndexSelectOp, ResidualPredicateFilters)
{
    OpsFixture fx;
    Predicate residual;
    residual.andInt(2, CmpOp::Eq, 0);
    IndexSelect idx(fx.db.ctx(), fx.db.catalog().index("t", "k"),
                    fx.tfile(), fx.txn, 0, 39, residual);
    EXPECT_EQ(drain(idx), 10u); // k in {0,4,...,36}
}

TEST(Joins, IndexedAndGraceJoinsMatchHandCount)
{
    OpsFixture fx;
    // t JOIN u ON t.k == u.k: keys 50..99 -> 50 rows.
    auto run_inlj = [&fx]() {
        SeqScan outer(fx.db.ctx(), fx.tfile(), fx.txn);
        IndexedNLJoin join(fx.db.ctx(), outer,
                           fx.db.catalog().index("u", "k"),
                           fx.ufile(), fx.txn, 0, 0);
        return drain(join);
    };
    auto run_ghj = [&fx]() {
        SeqScan left(fx.db.ctx(), fx.tfile(), fx.txn);
        SeqScan right(fx.db.ctx(), fx.ufile(), fx.txn);
        GraceHashJoin join(fx.db.ctx(), fx.db.bufferPool(),
                           fx.db.volume(), fx.db.locks(),
                           fx.db.log(), left, right, fx.txn, 0, 0,
                           4);
        return drain(join);
    };

    EXPECT_EQ(run_inlj(), 50u);
    EXPECT_EQ(run_ghj(), 50u);
}

TEST(Joins, OutputSchemaConcatenatesInputs)
{
    OpsFixture fx;
    SeqScan outer(fx.db.ctx(), fx.tfile(), fx.txn);
    IndexedNLJoin join(fx.db.ctx(), outer,
                       fx.db.catalog().index("u", "k"), fx.ufile(),
                       fx.txn, 0, 0);
    EXPECT_EQ(join.schema()->columnCount(), 6u);

    join.open();
    Tuple t;
    ASSERT_TRUE(join.next(t));
    // Join key equal on both sides.
    EXPECT_EQ(t.getInt(0), t.getInt(3));
    join.close();
}

TEST(Joins, GraceJoinDuplicateKeysMultiply)
{
    OpsFixture fx;
    // Insert 3 duplicate keys into u at k=60 -> 1x4 pairs for k=60.
    for (int i = 0; i < 3; ++i) {
        Tuple t(fx.db.catalog().table("u").schema.get());
        t.setInt(0, 60);
        t.setInt(1, 1000 + i);
        t.setInt(2, 0);
        fx.db.insertRow(fx.txn, "u", t);
    }
    SeqScan left(fx.db.ctx(), fx.tfile(), fx.txn);
    SeqScan right(fx.db.ctx(), fx.ufile(), fx.txn);
    GraceHashJoin join(fx.db.ctx(), fx.db.bufferPool(),
                       fx.db.volume(), fx.db.locks(), fx.db.log(),
                       left, right, fx.txn, 0, 0, 4);
    EXPECT_EQ(drain(join), 53u); // 50 + 3 extra matches at k=60
}

TEST(Aggregate, GroupSumsAndCounts)
{
    OpsFixture fx;
    SeqScan scan(fx.db.ctx(), fx.tfile(), fx.txn);
    HashAggregate agg(fx.db.ctx(), scan, {2},
                      {{AggKind::Sum, 1, "sum_v"},
                       {AggKind::Count, 0, "n"},
                       {AggKind::Min, 1, "min_v"},
                       {AggKind::Max, 1, "max_v"},
                       {AggKind::Avg, 1, "avg_v"}});

    agg.open();
    std::map<std::int32_t, std::vector<std::int32_t>> rows;
    Tuple t;
    while (agg.next(t)) {
        rows[t.getInt(0)] = {t.getInt(1), t.getInt(2), t.getInt(3),
                             t.getInt(4), t.getInt(5)};
    }
    agg.close();

    ASSERT_EQ(rows.size(), 4u);
    // grp 0: k = 0,4,...,96 -> sum v = 10*(0+4+...+96) = 12000.
    EXPECT_EQ(rows[0][0], 12000);
    EXPECT_EQ(rows[0][1], 25);
    EXPECT_EQ(rows[0][2], 0);
    EXPECT_EQ(rows[0][3], 960);
    EXPECT_EQ(rows[0][4], 480);
}

TEST(Aggregate, ScalarAggregateWithoutGroups)
{
    OpsFixture fx;
    SeqScan scan(fx.db.ctx(), fx.tfile(), fx.txn);
    HashAggregate agg(fx.db.ctx(), scan, {},
                      {{AggKind::Count, 0, "n"}});
    agg.open();
    Tuple t;
    ASSERT_TRUE(agg.next(t));
    EXPECT_EQ(t.getInt(0), 100);
    EXPECT_FALSE(agg.next(t));
    agg.close();
}

TEST(SortOp, OrdersAndLimits)
{
    OpsFixture fx;
    SeqScan scan(fx.db.ctx(), fx.tfile(), fx.txn);
    Sort sort(fx.db.ctx(), scan, 1, /*descending=*/true,
              /*limit=*/5);
    sort.open();
    Tuple t;
    std::vector<std::int32_t> vs;
    while (sort.next(t))
        vs.push_back(t.getInt(1));
    sort.close();
    EXPECT_EQ(vs, (std::vector<std::int32_t>{990, 980, 970, 960,
                                             950}));
}

TEST(SortOp, AscendingFullSort)
{
    OpsFixture fx;
    SeqScan scan(fx.db.ctx(), fx.tfile(), fx.txn);
    Sort sort(fx.db.ctx(), scan, 0);
    sort.open();
    Tuple t;
    std::int32_t prev = -1;
    std::uint64_t rows = 0;
    while (sort.next(t)) {
        EXPECT_GT(t.getInt(0), prev);
        prev = t.getInt(0);
        ++rows;
    }
    sort.close();
    EXPECT_EQ(rows, 100u);
}

TEST(ExecutorOp, RunsPlanToCompletion)
{
    OpsFixture fx;
    Predicate p;
    p.andInt(0, CmpOp::Lt, 30);
    SeqScan scan(fx.db.ctx(), fx.tfile(), fx.txn, p);
    Executor exec(fx.db.ctx());
    EXPECT_EQ(exec.run("test-query", scan, 3), 30u);
}

} // namespace
} // namespace cgp::db
