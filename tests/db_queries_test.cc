/**
 * @file
 * Workload-level tests: the Wisconsin generator/queries and the
 * TPC-H generator/queries produce correct data and plausible result
 * cardinalities while recording well-formed traces.
 */

#include <gtest/gtest.h>

#include <set>

#include "db/dbsys.hh"
#include "db/ops/scan.hh"
#include "db/tpch.hh"
#include "db/wisconsin.hh"

namespace cgp::db
{
namespace
{

TEST(Wisconsin, GeneratorProducesStandardColumns)
{
    FunctionRegistry reg;
    DbSystem db(reg);
    const std::uint32_t n = 500;
    Wisconsin::load(db, n);

    TableInfo &big1 = db.catalog().table("big1");
    EXPECT_EQ(big1.file->recordCount(), n);
    EXPECT_EQ(db.catalog().table("big2").file->recordCount(), n);
    EXPECT_EQ(db.catalog().table("small").file->recordCount(),
              n / 10);

    // unique1 is a permutation of 0..n-1; unique2 is sequential;
    // derived columns are consistent.
    const TxnId txn = db.txns().begin();
    HeapFile::Scan scan(*big1.file, txn);
    Tuple t;
    std::set<std::int32_t> u1s;
    std::int32_t expect_u2 = 0;
    while (scan.next(t)) {
        const auto u1 = t.getInt(0);
        EXPECT_TRUE(u1s.insert(u1).second);
        EXPECT_GE(u1, 0);
        EXPECT_LT(u1, static_cast<std::int32_t>(n));
        EXPECT_EQ(t.getInt(1), expect_u2++);
        EXPECT_EQ(t.getInt(2), u1 % 2);          // two
        EXPECT_EQ(t.getInt(3), u1 % 4);          // four
        EXPECT_EQ(t.getInt(6), u1 % 100);        // onePercent
        EXPECT_EQ(t.getInt(10), u1);             // unique3
        EXPECT_EQ(t.getInt(11), (u1 % 100) * 2); // evenOnePercent
    }
    scan.close();
    EXPECT_EQ(u1s.size(), n);
    db.txns().commit(txn);

    EXPECT_TRUE(db.catalog().hasIndex("big1", "unique1"));
    EXPECT_TRUE(db.catalog().hasIndex("big1", "unique2"));
}

class WisconsinQueryTest : public ::testing::TestWithParam<int>
{
  protected:
    static constexpr std::uint32_t n = 1000;

    static DbSystem &
    db()
    {
        static FunctionRegistry reg;
        static DbSystem instance(reg);
        static bool loaded = false;
        if (!loaded) {
            Wisconsin::load(instance, n);
            loaded = true;
        }
        return instance;
    }
};

TEST_P(WisconsinQueryTest, CardinalityMatchesSelectivity)
{
    const int q = GetParam();
    TraceBuffer buf;
    db().record(buf);
    Rng rng(1234 + static_cast<std::uint64_t>(q));
    const std::uint64_t rows = Wisconsin::runQuery(db(), q, n, rng);

    switch (q) {
      case 1: // 1% selection
      case 3:
      case 5:
        EXPECT_EQ(rows, n / 100);
        break;
      case 2: // 10% selection
      case 4:
      case 6:
        EXPECT_EQ(rows, n / 10);
        break;
      case 7: // single tuple
        EXPECT_EQ(rows, 1u);
        break;
      case 9: // join with a 10% selection on one side
        EXPECT_EQ(rows, n / 10);
        break;
    }
    // The query left a non-trivial balanced trace behind.
    EXPECT_GT(buf.size(), 100u);
    EXPECT_GT(buf.calls(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Queries, WisconsinQueryTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 9));

TEST(Wisconsin, QueryNamesAreDescriptive)
{
    EXPECT_NE(std::string(Wisconsin::queryName(1)).find("1%"),
              std::string::npos);
    EXPECT_NE(std::string(Wisconsin::queryName(9)).find("join"),
              std::string::npos);
}

struct TpchFixture
{
    FunctionRegistry reg;
    DbSystem db{reg};
    Tpch::Scale scale = Tpch::Scale::fromLineitems(2000);

    TpchFixture() { Tpch::load(db, scale); }
};

TEST(Tpch, GeneratorRespectsScaleAndSchema)
{
    TpchFixture fx;
    EXPECT_EQ(fx.db.catalog().table("lineitem").file->recordCount(),
              fx.scale.lineitem);
    EXPECT_EQ(fx.db.catalog().table("orders").file->recordCount(),
              fx.scale.orders);
    EXPECT_EQ(fx.db.catalog().table("customer").file->recordCount(),
              fx.scale.customer);
    EXPECT_EQ(fx.db.catalog().table("nation").file->recordCount(),
              25u);
    EXPECT_EQ(fx.db.catalog().table("region").file->recordCount(),
              5u);

    // Foreign keys stay in range.
    const TxnId txn = fx.db.txns().begin();
    HeapFile::Scan scan(*fx.db.catalog().table("lineitem").file,
                        txn);
    Tuple t;
    const Schema &li = *fx.db.catalog().table("lineitem").schema;
    while (scan.next(t)) {
        EXPECT_LT(t.getInt(li.indexOf("orderkey")),
                  static_cast<std::int32_t>(fx.scale.orders));
        EXPECT_LT(t.getInt(li.indexOf("suppkey")),
                  static_cast<std::int32_t>(fx.scale.supplier));
        EXPECT_GE(t.getInt(li.indexOf("shipdate")), 1);
        EXPECT_LE(t.getInt(li.indexOf("shipdate")), Tpch::maxDate);
    }
    scan.close();
    fx.db.txns().commit(txn);
}

class TpchQueryTest : public ::testing::TestWithParam<int>
{
};

TEST_P(TpchQueryTest, QueriesRunAndProduceRows)
{
    static TpchFixture fx;
    const int q = GetParam();
    TraceBuffer buf;
    fx.db.record(buf);
    Rng rng(77 + static_cast<std::uint64_t>(q));
    const std::uint64_t rows = Tpch::runQuery(fx.db, q, rng);

    switch (q) {
      case 1:
        // Group by (returnflag x linestatus): at most 6 groups.
        EXPECT_GE(rows, 1u);
        EXPECT_LE(rows, 6u);
        break;
      case 6:
        EXPECT_EQ(rows, 1u); // scalar aggregate
        break;
      case 3:
        EXPECT_LE(rows, 10u); // top-10
        break;
      case 2:
        EXPECT_GE(rows, 1u);
        break;
      case 5:
        // Revenue groups by nation: bounded by the nation count;
        // at tiny scales zero local-supplier matches is legitimate.
        EXPECT_LE(rows, 25u);
        break;
    }
    EXPECT_GT(buf.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Queries, TpchQueryTest,
                         ::testing::Values(1, 2, 3, 5, 6));

TEST(Tpch, ScaleDerivation)
{
    const auto s = Tpch::Scale::fromLineitems(8000);
    EXPECT_EQ(s.lineitem, 8000u);
    EXPECT_EQ(s.orders, 2000u);
    EXPECT_EQ(s.partsupp, s.part * 2);
    // Floors keep tiny scales usable.
    const auto tiny = Tpch::Scale::fromLineitems(1);
    EXPECT_GE(tiny.lineitem, 400u);
    EXPECT_GE(tiny.customer, 20u);
}

} // namespace
} // namespace cgp::db
