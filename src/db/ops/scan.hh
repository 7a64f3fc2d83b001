/**
 * @file
 * SeqScan: full heap-file scan with an optional filter predicate —
 * Wisconsin's non-indexed selections.
 */

#ifndef CGP_DB_OPS_SCAN_HH
#define CGP_DB_OPS_SCAN_HH

#include <memory>
#include <optional>

#include "db/heapfile.hh"
#include "db/ops/operator.hh"

namespace cgp::db
{

class SeqScan : public Operator
{
  public:
    SeqScan(DbContext &ctx, HeapFile &file, TxnId txn,
            Predicate predicate = {});

    void open() override;
    bool next(Tuple &out) override;
    void close() override;

    const Schema *schema() const override { return file_.schema(); }

    std::uint64_t tuplesScanned() const { return scanned_; }

  private:
    DbContext &ctx_;
    HeapFile &file_;
    TxnId txn_;
    Predicate predicate_;
    std::optional<HeapFile::Scan> scan_;
    std::uint64_t scanned_ = 0;
};

} // namespace cgp::db

#endif // CGP_DB_OPS_SCAN_HH
