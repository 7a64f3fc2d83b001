/**
 * @file
 * Hash-based grouping aggregate (SUM/COUNT/AVG/MIN over INT32
 * columns) — the paper's "hash based aggregate" operator, used by
 * the TPC-H queries.
 */

#ifndef CGP_DB_OPS_AGGREGATE_HH
#define CGP_DB_OPS_AGGREGATE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/ops/operator.hh"

namespace cgp::db
{

enum class AggKind : std::uint8_t
{
    Sum,
    Count,
    Avg,
    Min,
    Max
};

struct AggSpec
{
    AggKind kind = AggKind::Sum;
    std::size_t col = 0; ///< input column (ignored for Count)
    std::string name;    ///< output column name
};

class HashAggregate : public Operator
{
  public:
    /**
     * Output schema: the group-by columns (as INT32) followed by one
     * INT32 column per aggregate.
     */
    HashAggregate(DbContext &ctx, Operator &child,
                  std::vector<std::size_t> group_cols,
                  std::vector<AggSpec> aggs);

    void open() override;
    bool next(Tuple &out) override;
    void close() override;
    const Schema *schema() const override { return &outSchema_; }

    std::uint64_t groupCount() const { return groups_.size(); }

  private:
    struct GroupState
    {
        std::vector<std::int64_t> acc;
        std::vector<std::int64_t> count;
    };

    void consumeChild();

    DbContext &ctx_;
    Operator &child_;
    std::vector<std::size_t> groupCols_;
    std::vector<AggSpec> aggs_;
    Schema outSchema_;

    /** Ordered map gives deterministic output order. */
    std::map<std::vector<std::int32_t>, GroupState> groups_;
    std::map<std::vector<std::int32_t>, GroupState>::const_iterator
        cursor_;
    bool materialized_ = false;
};

} // namespace cgp::db

#endif // CGP_DB_OPS_AGGREGATE_HH
