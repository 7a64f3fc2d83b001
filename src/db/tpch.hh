/**
 * @file
 * Scaled-down TPC-H-like dataset and the five queries the paper
 * evaluates (1, 2, 3, 5, 6), implemented over our operator set.
 *
 * Numeric columns are INT32 (prices in cents, dates as day numbers);
 * the queries keep TPC-H's join/aggregation shapes: Q1/Q6 scan +
 * aggregate lineitem, Q3 is the shipping-priority 3-way join with
 * sort, Q5 the local-supplier 5-way join, Q2 the minimum-cost
 * supplier nested query (aggregate subquery + re-join).
 */

#ifndef CGP_DB_TPCH_HH
#define CGP_DB_TPCH_HH

#include <cstdint>

#include "db/dbsys.hh"
#include "util/rng.hh"

namespace cgp::db
{

class Tpch
{
  public:
    /** Row counts derived from a lineitem target. */
    struct Scale
    {
        std::uint32_t lineitem = 8000;
        std::uint32_t orders = 2000;
        std::uint32_t customer = 200;
        std::uint32_t part = 400;
        std::uint32_t supplier = 40;
        std::uint32_t partsupp = 800;

        static Scale fromLineitems(std::uint32_t l);
    };

    /** Create and load all eight tables plus the query indexes. */
    static void load(DbSystem &db, const Scale &scale,
                     std::uint64_t seed = 0x7bc8);

    /**
     * Run one TPC-H query (1, 2, 3, 5 or 6).
     * @return result row count.
     */
    static std::uint64_t runQuery(DbSystem &db, int query, Rng &rng);

    static const char *queryName(int query);

    /** Last day number in the generated date domain. */
    static constexpr std::int32_t maxDate = 2400;
};

} // namespace cgp::db

#endif // CGP_DB_TPCH_HH
