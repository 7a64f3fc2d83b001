#include "db/tpch.hh"

#include <map>
#include <utility>

#include "db/ops/aggregate.hh"
#include "db/ops/executor.hh"
#include "db/ops/index_select.hh"
#include "db/ops/joins.hh"
#include "db/ops/scan.hh"
#include "db/ops/sort.hh"
#include "util/logging.hh"

namespace cgp::db
{

Tpch::Scale
Tpch::Scale::fromLineitems(std::uint32_t l)
{
    Scale s;
    s.lineitem = std::max<std::uint32_t>(l, 400);
    s.orders = std::max<std::uint32_t>(s.lineitem / 4, 100);
    s.customer = std::max<std::uint32_t>(s.orders / 10, 20);
    s.part = std::max<std::uint32_t>(s.lineitem / 20, 40);
    s.supplier = std::max<std::uint32_t>(s.lineitem / 200, 10);
    s.partsupp = s.part * 2;
    return s;
}

namespace
{

constexpr std::uint32_t numNations = 25;
constexpr std::uint32_t numRegions = 5;

void
loadRegionNation(DbSystem &db)
{
    TableInfo &region = db.createTable(
        "region", Schema({{"regionkey", ColumnType::Int32, 4},
                          {"name", ColumnType::Char, 8}}));
    TableInfo &nation = db.createTable(
        "nation", Schema({{"nationkey", ColumnType::Int32, 4},
                          {"regionkey", ColumnType::Int32, 4},
                          {"name", ColumnType::Char, 8}}));

    const TxnId txn = db.txns().begin();
    for (std::uint32_t r = 0; r < numRegions; ++r) {
        Tuple t(region.schema.get());
        t.setInt(0, static_cast<std::int32_t>(r));
        t.setString(1, "REGION" + std::to_string(r));
        db.insertRow(txn, "region", t);
    }
    for (std::uint32_t n = 0; n < numNations; ++n) {
        Tuple t(nation.schema.get());
        t.setInt(0, static_cast<std::int32_t>(n));
        t.setInt(1, static_cast<std::int32_t>(n % numRegions));
        t.setString(2, "NATION" + std::to_string(n));
        db.insertRow(txn, "nation", t);
    }
    db.txns().commit(txn);
}

} // anonymous namespace

void
Tpch::load(DbSystem &db, const Scale &scale, std::uint64_t seed)
{
    Rng rng(seed);

    loadRegionNation(db);

    TableInfo &supplier = db.createTable(
        "supplier", Schema({{"suppkey", ColumnType::Int32, 4},
                            {"nationkey", ColumnType::Int32, 4},
                            {"acctbal", ColumnType::Int32, 4}}));
    TableInfo &customer = db.createTable(
        "customer", Schema({{"custkey", ColumnType::Int32, 4},
                            {"nationkey", ColumnType::Int32, 4},
                            {"mktsegment", ColumnType::Int32, 4},
                            {"acctbal", ColumnType::Int32, 4}}));
    TableInfo &part = db.createTable(
        "part", Schema({{"partkey", ColumnType::Int32, 4},
                        {"size", ColumnType::Int32, 4},
                        {"type", ColumnType::Int32, 4}}));
    TableInfo &partsupp = db.createTable(
        "partsupp", Schema({{"partkey", ColumnType::Int32, 4},
                            {"suppkey", ColumnType::Int32, 4},
                            {"supplycost", ColumnType::Int32, 4}}));
    TableInfo &orders = db.createTable(
        "orders", Schema({{"orderkey", ColumnType::Int32, 4},
                          {"custkey", ColumnType::Int32, 4},
                          {"orderdate", ColumnType::Int32, 4},
                          {"shippriority", ColumnType::Int32, 4}}));
    TableInfo &lineitem = db.createTable(
        "lineitem", Schema({{"orderkey", ColumnType::Int32, 4},
                            {"partkey", ColumnType::Int32, 4},
                            {"suppkey", ColumnType::Int32, 4},
                            {"quantity", ColumnType::Int32, 4},
                            {"extendedprice", ColumnType::Int32, 4},
                            {"discount", ColumnType::Int32, 4},
                            {"tax", ColumnType::Int32, 4},
                            {"returnflag", ColumnType::Int32, 4},
                            {"linestatus", ColumnType::Int32, 4},
                            {"shipdate", ColumnType::Int32, 4}}));

    const TxnId txn = db.txns().begin();

    for (std::uint32_t i = 0; i < scale.supplier; ++i) {
        Tuple t(supplier.schema.get());
        t.setInt(0, static_cast<std::int32_t>(i));
        t.setInt(1, static_cast<std::int32_t>(
                        rng.nextBelow(numNations)));
        t.setInt(2, static_cast<std::int32_t>(
                        rng.nextBelow(100000)));
        db.insertRow(txn, "supplier", t);
    }

    for (std::uint32_t i = 0; i < scale.customer; ++i) {
        Tuple t(customer.schema.get());
        t.setInt(0, static_cast<std::int32_t>(i));
        t.setInt(1, static_cast<std::int32_t>(
                        rng.nextBelow(numNations)));
        t.setInt(2, static_cast<std::int32_t>(rng.nextBelow(5)));
        t.setInt(3, static_cast<std::int32_t>(
                        rng.nextBelow(100000)));
        db.insertRow(txn, "customer", t);
    }

    for (std::uint32_t i = 0; i < scale.part; ++i) {
        Tuple t(part.schema.get());
        t.setInt(0, static_cast<std::int32_t>(i));
        t.setInt(1, static_cast<std::int32_t>(
                        1 + rng.nextBelow(50)));
        t.setInt(2, static_cast<std::int32_t>(rng.nextBelow(25)));
        db.insertRow(txn, "part", t);
    }

    for (std::uint32_t i = 0; i < scale.partsupp; ++i) {
        Tuple t(partsupp.schema.get());
        t.setInt(0, static_cast<std::int32_t>(i % scale.part));
        t.setInt(1, static_cast<std::int32_t>(
                        rng.nextBelow(scale.supplier)));
        t.setInt(2, static_cast<std::int32_t>(
                        100 + rng.nextBelow(99900)));
        db.insertRow(txn, "partsupp", t);
    }

    for (std::uint32_t i = 0; i < scale.orders; ++i) {
        Tuple t(orders.schema.get());
        t.setInt(0, static_cast<std::int32_t>(i));
        t.setInt(1, static_cast<std::int32_t>(
                        rng.nextBelow(scale.customer)));
        t.setInt(2, static_cast<std::int32_t>(
                        1 + rng.nextBelow(Tpch::maxDate)));
        t.setInt(3, 0);
        db.insertRow(txn, "orders", t);
    }

    for (std::uint32_t i = 0; i < scale.lineitem; ++i) {
        Tuple t(lineitem.schema.get());
        t.setInt(0, static_cast<std::int32_t>(
                        rng.nextBelow(scale.orders)));
        t.setInt(1, static_cast<std::int32_t>(
                        rng.nextBelow(scale.part)));
        t.setInt(2, static_cast<std::int32_t>(
                        rng.nextBelow(scale.supplier)));
        t.setInt(3, static_cast<std::int32_t>(
                        1 + rng.nextBelow(50)));
        t.setInt(4, static_cast<std::int32_t>(
                        1000 + rng.nextBelow(99000)));
        t.setInt(5, static_cast<std::int32_t>(rng.nextBelow(11)));
        t.setInt(6, static_cast<std::int32_t>(rng.nextBelow(9)));
        t.setInt(7, static_cast<std::int32_t>(rng.nextBelow(3)));
        t.setInt(8, static_cast<std::int32_t>(rng.nextBelow(2)));
        t.setInt(9, static_cast<std::int32_t>(
                        1 + rng.nextBelow(Tpch::maxDate)));
        db.insertRow(txn, "lineitem", t);
    }

    db.txns().commit(txn);

    db.createIndex("orders", "custkey");
    db.createIndex("lineitem", "orderkey");
    db.createIndex("supplier", "suppkey");
    db.createIndex("partsupp", "partkey");
}

const char *
Tpch::queryName(int query)
{
    switch (query) {
      case 1:
        return "tpch-q1: pricing summary report";
      case 2:
        return "tpch-q2: minimum cost supplier";
      case 3:
        return "tpch-q3: shipping priority";
      case 5:
        return "tpch-q5: local supplier volume";
      case 6:
        return "tpch-q6: forecasting revenue change";
      default:
        return "tpch-q?: unknown";
    }
}

std::uint64_t
Tpch::runQuery(DbSystem &db, int query, Rng &rng)
{
    DbContext &ctx = db.ctx();
    ctx.queryClass = static_cast<std::size_t>(8 + query);
    Executor exec(ctx);
    const TxnId txn = db.txns().begin();

    TableInfo &lineitem = db.catalog().table("lineitem");
    TableInfo &orders = db.catalog().table("orders");
    TableInfo &customer = db.catalog().table("customer");
    TableInfo &supplier = db.catalog().table("supplier");
    TableInfo &part = db.catalog().table("part");
    TableInfo &partsupp = db.catalog().table("partsupp");

    const Schema &li = *lineitem.schema;
    const std::size_t li_orderkey = li.indexOf("orderkey");
    const std::size_t li_qty = li.indexOf("quantity");
    const std::size_t li_price = li.indexOf("extendedprice");
    const std::size_t li_disc = li.indexOf("discount");
    const std::size_t li_rf = li.indexOf("returnflag");
    const std::size_t li_ls = li.indexOf("linestatus");
    const std::size_t li_ship = li.indexOf("shipdate");
    const std::size_t li_supp = li.indexOf("suppkey");

    std::uint64_t rows = 0;
    switch (query) {
      case 1: {
        // Pricing summary: filter by shipdate, group by
        // returnflag/linestatus.
        Predicate p;
        p.andInt(li_ship, CmpOp::Le, maxDate - 90);
        SeqScan scan(ctx, *lineitem.file, txn, p);
        HashAggregate agg(
            ctx, scan, {li_rf, li_ls},
            {{AggKind::Sum, li_qty, "sum_qty"},
             {AggKind::Sum, li_price, "sum_base_price"},
             {AggKind::Avg, li_qty, "avg_qty"},
             {AggKind::Count, 0, "count_order"}});
        rows = exec.run("tpch-q1", agg, 8);
        break;
      }
      case 6: {
        // Revenue forecast: tight scan filter, scalar aggregate.
        const auto year_start = static_cast<std::int32_t>(
            1 + rng.nextBelow(maxDate - 365));
        Predicate p;
        p.andInt(li_ship, CmpOp::Between, year_start,
                 year_start + 364);
        p.andInt(li_disc, CmpOp::Between, 4, 6);
        p.andInt(li_qty, CmpOp::Lt, 24);
        SeqScan scan(ctx, *lineitem.file, txn, p);
        HashAggregate agg(ctx, scan, {},
                          {{AggKind::Sum, li_price, "revenue"},
                           {AggKind::Count, 0, "rows"}});
        rows = exec.run("tpch-q6", agg, 12);
        break;
      }
      case 3: {
        // Shipping priority: customer(mktsegment) |><| orders |><|
        // lineitem, aggregate revenue per order, top-10 by revenue.
        const Schema &cu = *customer.schema;
        const Schema &od = *orders.schema;
        const auto segment =
            static_cast<std::int32_t>(rng.nextBelow(5));
        const std::int32_t cutoff = maxDate / 2;

        Predicate pc;
        pc.andInt(cu.indexOf("mktsegment"), CmpOp::Eq, segment);
        SeqScan cust(ctx, *customer.file, txn, pc);

        // o_orderdate < cutoff (residual on the index probe).
        Predicate p_orders;
        p_orders.andInt(od.indexOf("orderdate"), CmpOp::Lt, cutoff);
        IndexedNLJoin c_o(ctx, cust,
                          db.catalog().index("orders", "custkey"),
                          *orders.file, txn, cu.indexOf("custkey"),
                          od.indexOf("custkey"), p_orders);

        // Concatenated schema: customer columns then orders columns.
        const std::size_t od_off = cu.columnCount();
        const std::size_t co_orderkey = od_off + od.indexOf("orderkey");

        // l_shipdate > cutoff.
        Predicate p_lines;
        p_lines.andInt(li_ship, CmpOp::Gt, cutoff);
        IndexedNLJoin col(ctx, c_o,
                          db.catalog().index("lineitem", "orderkey"),
                          *lineitem.file, txn, co_orderkey,
                          li_orderkey, p_lines);

        const std::size_t li_off = od_off + od.columnCount();
        HashAggregate agg(
            ctx, col, {co_orderkey},
            {{AggKind::Sum, li_off + li_price, "revenue"}});
        Sort sort(ctx, agg, 1, /*descending=*/true, /*limit=*/10);
        rows = exec.run("tpch-q3", sort, 10);
        break;
      }
      case 5: {
        // Local supplier volume: customers of one region joined
        // through orders/lineitem to suppliers, revenue by nation.
        const Schema &cu = *customer.schema;
        const Schema &od = *orders.schema;
        const auto region =
            static_cast<std::int32_t>(rng.nextBelow(numRegions));

        // Nations of the region (nationkey % regions == region).
        Predicate pc;
        // Our nation->region mapping is nationkey % numRegions, so
        // region membership is not a contiguous range; filter
        // customers by explicit nation check below instead.
        SeqScan cust(ctx, *customer.file, txn, pc);

        IndexedNLJoin c_o(ctx, cust,
                          db.catalog().index("orders", "custkey"),
                          *orders.file, txn, cu.indexOf("custkey"),
                          od.indexOf("custkey"));
        const std::size_t od_off = cu.columnCount();
        const std::size_t co_orderkey =
            od_off + od.indexOf("orderkey");
        IndexedNLJoin col(ctx, c_o,
                          db.catalog().index("lineitem", "orderkey"),
                          *lineitem.file, txn, co_orderkey,
                          li_orderkey);

        // Pull loop with the supplier probe and the region/nation
        // residuals evaluated per tuple; revenue accumulated by
        // nation.
        const std::size_t cu_nation = cu.indexOf("nationkey");
        const std::size_t li_off2 = od_off + od.columnCount();
        BTree &supp_idx = db.catalog().index("supplier", "suppkey");
        const Schema &su = *supplier.schema;

        std::map<std::int32_t, std::int64_t> revenue;
        col.open();
        Tuple jt;
        while (col.next(jt)) {
            const auto nation = tracedGetInt(ctx, jt, cu_nation);
            bool in_region = false;
            {
                TraceScope es(ctx.rec, ctx.fn.predEvalEq.site(5));
                es.work(8);
                in_region =
                    nation % static_cast<std::int32_t>(numRegions) ==
                    region;
                es.branch(in_region);
            }
            if (!in_region)
                continue;
            Rid srid;
            if (!supp_idx.search(
                    txn,
                    tracedGetInt(ctx, jt, li_off2 + li_supp),
                    srid)) {
                continue;
            }
            Tuple sup = supplier.file->getRec(txn, srid);
            bool local = false;
            {
                TraceScope es(ctx.rec, ctx.fn.predEvalEq.site(5));
                es.work(8);
                local = tracedGetInt(ctx, sup,
                                     su.indexOf("nationkey")) ==
                    nation;
                es.branch(local);
            }
            if (!local)
                continue;
            revenue[nation] += tracedGetInt(ctx, jt,
                                            li_off2 + li_price);
        }
        col.close();
        rows = revenue.size();
        break;
      }
      case 2: {
        // Minimum-cost supplier: aggregate subquery then re-join.
        const Schema &ps = *partsupp.schema;
        const Schema &pt = *part.schema;
        const auto size =
            static_cast<std::int32_t>(1 + rng.nextBelow(50));

        // Phase 1: min supplycost per part of the chosen size.
        Predicate pp;
        pp.andInt(pt.indexOf("size"), CmpOp::Eq, size);
        SeqScan parts(ctx, *part.file, txn, pp);
        IndexedNLJoin p_ps(ctx, parts,
                           db.catalog().index("partsupp", "partkey"),
                           *partsupp.file, txn,
                           pt.indexOf("partkey"),
                           ps.indexOf("partkey"));
        const std::size_t ps_off = pt.columnCount();
        HashAggregate minAgg(
            ctx, p_ps, {ps_off + ps.indexOf("partkey")},
            {{AggKind::Min, ps_off + ps.indexOf("supplycost"),
              "min_cost"}});

        minAgg.open();
        std::map<std::int32_t, std::int32_t> min_cost;
        Tuple mt;
        while (minAgg.next(mt))
            min_cost[mt.getInt(0)] = mt.getInt(1);
        minAgg.close();

        // Phase 2: partsupp rows matching the minimum, joined to
        // their supplier through the suppkey index.
        SeqScan psScan(ctx, *partsupp.file, txn, Predicate{});
        psScan.open();
        Tuple pst;
        while (psScan.next(pst)) {
            const auto pk = tracedGetInt(ctx, pst,
                                         ps.indexOf("partkey"));
            const auto cost = tracedGetInt(
                ctx, pst, ps.indexOf("supplycost"));
            bool match = false;
            {
                TraceScope es(ctx.rec, ctx.fn.predEvalEq.site(5));
                es.work(9);
                auto it = min_cost.find(pk);
                match = it != min_cost.end() && it->second == cost;
                es.branch(match);
            }
            if (!match)
                continue;
            Rid srid;
            if (db.catalog().index("supplier", "suppkey")
                    .search(txn,
                            tracedGetInt(ctx, pst,
                                         ps.indexOf("suppkey")),
                            srid)) {
                Tuple sup = supplier.file->getRec(txn, srid);
                (void)sup;
                ++rows;
            }
        }
        psScan.close();
        break;
      }
      default:
        cgp_fatal("TPC-H query ", query, " not implemented");
    }

    db.txns().commit(txn);
    return rows;
}

} // namespace cgp::db
