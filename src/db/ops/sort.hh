/**
 * @file
 * Sort (materializing) operator — needed by the TPC-H order-by
 * queries.
 */

#ifndef CGP_DB_OPS_SORT_HH
#define CGP_DB_OPS_SORT_HH

#include <cstdint>
#include <vector>

#include "db/ops/operator.hh"

namespace cgp::db
{

class Sort : public Operator
{
  public:
    /**
     * @param key_col INT32 sort key.
     * @param descending Sort direction.
     * @param limit Emit at most this many rows (0 = all).
     */
    Sort(DbContext &ctx, Operator &child, std::size_t key_col,
         bool descending = false, std::uint64_t limit = 0);

    void open() override;
    bool next(Tuple &out) override;
    void close() override;
    const Schema *schema() const override { return child_.schema(); }

  private:
    void materialize();

    DbContext &ctx_;
    Operator &child_;
    std::size_t keyCol_;
    bool descending_;
    std::uint64_t limit_;
    std::vector<Tuple> rows_;
    std::size_t cursor_ = 0;
};

} // namespace cgp::db

#endif // CGP_DB_OPS_SORT_HH
