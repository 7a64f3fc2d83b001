/**
 * @file
 * IndexSelect: B+-tree range scan followed by heap-file RID fetches
 * — Wisconsin's indexed selections.  With a non-clustered index the
 * fetches hop across pages, exactly the access pattern the paper's
 * query 5 exercises.
 */

#ifndef CGP_DB_OPS_INDEX_SELECT_HH
#define CGP_DB_OPS_INDEX_SELECT_HH

#include <optional>

#include "db/btree.hh"
#include "db/heapfile.hh"
#include "db/ops/operator.hh"

namespace cgp::db
{

class IndexSelect : public Operator
{
  public:
    /**
     * @param lo,hi Key range [lo, hi] pushed into the index.
     * @param residual Extra predicate applied after the fetch.
     */
    IndexSelect(DbContext &ctx, BTree &index, HeapFile &file,
                TxnId txn, std::int32_t lo, std::int32_t hi,
                Predicate residual = {});

    void open() override;
    bool next(Tuple &out) override;
    void close() override;

    const Schema *schema() const override { return file_.schema(); }

  private:
    DbContext &ctx_;
    BTree &index_;
    HeapFile &file_;
    TxnId txn_;
    std::int32_t lo_;
    std::int32_t hi_;
    Predicate residual_;
    std::optional<BTree::RangeScan> scan_;
};

} // namespace cgp::db

#endif // CGP_DB_OPS_INDEX_SELECT_HH
