/**
 * @file
 * Join operators: indexed nested loops, and grace hash join (which
 * materializes temporary partitions through the storage manager —
 * the paper's Create_rec example cites exactly this use).
 */

#ifndef CGP_DB_OPS_JOINS_HH
#define CGP_DB_OPS_JOINS_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "db/btree.hh"
#include "db/heapfile.hh"
#include "db/ops/operator.hh"
#include "db/txn.hh"

namespace cgp::db
{

/** Indexed nested loops: probes a B+-tree per outer tuple. */
class IndexedNLJoin : public Operator
{
  public:
    /**
     * @param inner_residual Predicate applied to each fetched inner
     *        tuple (e.g. a date filter that the index cannot serve).
     */
    IndexedNLJoin(DbContext &ctx, Operator &outer, BTree &inner_index,
                  HeapFile &inner_file, TxnId txn,
                  std::size_t outer_col, std::size_t inner_col,
                  Predicate inner_residual = {});

    void open() override;
    bool next(Tuple &out) override;
    void close() override;
    const Schema *schema() const override { return &outSchema_; }

  private:
    DbContext &ctx_;
    Operator &outer_;
    BTree &innerIndex_;
    HeapFile &innerFile_;
    TxnId txn_;
    std::size_t outerCol_;
    std::size_t innerCol_;
    Predicate innerResidual_;
    Schema outSchema_;
    Tuple outerTuple_;
    std::vector<Rid> matches_;
    std::size_t matchIdx_ = 0;
    bool haveOuter_ = false;
};

/**
 * Grace hash join: partition both inputs into temporary heap files
 * via the storage manager, then build+probe per partition.
 */
class GraceHashJoin : public Operator
{
  public:
    /**
     * @param partitions Fan-out of the partition phase.
     */
    GraceHashJoin(DbContext &ctx, BufferPool &pool, Volume &volume,
                  LockManager &locks, WriteAheadLog &log,
                  Operator &left, Operator &right, TxnId txn,
                  std::size_t left_col, std::size_t right_col,
                  unsigned partitions = 8);

    void open() override;
    bool next(Tuple &out) override;
    void close() override;
    const Schema *schema() const override { return &outSchema_; }

  private:
    /** Route one input into temp partition files. */
    void partitionInput(Operator &input, std::size_t col,
                        std::vector<std::unique_ptr<HeapFile>> &parts);

    /** Load partition @p p of the left side into the hash table. */
    void buildPartition(std::size_t p);

    /** Pull right-side tuples of partition @p p and probe. */
    bool probeStep(Tuple &out);

    DbContext &ctx_;
    BufferPool &pool_;
    Volume &volume_;
    LockManager &locks_;
    WriteAheadLog &log_;
    Operator &left_;
    Operator &right_;
    TxnId txn_;
    std::size_t leftCol_;
    std::size_t rightCol_;
    unsigned numPartitions_;
    Schema outSchema_;

    std::vector<std::unique_ptr<HeapFile>> leftParts_;
    std::vector<std::unique_ptr<HeapFile>> rightParts_;
    std::unordered_multimap<std::int32_t, Tuple> hashTable_;
    std::size_t curPartition_ = 0;
    std::unique_ptr<HeapFile::Scan> probeScan_;
    Tuple probeTuple_;
    std::vector<const Tuple *> probeMatches_;
    std::size_t probeMatchIdx_ = 0;
    bool opened_ = false;
};

} // namespace cgp::db

#endif // CGP_DB_OPS_JOINS_HH
