/**
 * @file
 * Heap files of fixed-schema records.  createRec() is the paper's
 * Figure 2 entry point: find a page with space in the buffer pool
 * (rarely touching disk once resident), lock it, update it, unlock
 * it — the call sequence CGP learns.
 */

#ifndef CGP_DB_HEAPFILE_HH
#define CGP_DB_HEAPFILE_HH

#include <cstdint>
#include <vector>

#include "db/buffer_pool.hh"
#include "db/common.hh"
#include "db/context.hh"
#include "db/lock.hh"
#include "db/page.hh"
#include "db/tuple.hh"
#include "db/txn.hh"
#include "db/volume.hh"
#include "db/wal.hh"

namespace cgp::db
{

class HeapFile
{
  public:
    HeapFile(DbContext &ctx, BufferPool &pool, Volume &volume,
             LockManager &locks, WriteAheadLog &log,
             const Schema *schema);

    /** Create_rec: append a record, returning its RID. */
    Rid createRec(TxnId txn, const Tuple &tuple);

    /** Fetch a record by RID. */
    Tuple getRec(TxnId txn, Rid rid);

    const Schema *schema() const { return schema_; }
    std::uint64_t recordCount() const { return records_; }
    std::size_t pageCount() const { return pages_.size(); }
    PageId pageAt(std::size_t i) const { return pages_[i]; }

    /**
     * Sequential scan cursor.  Pages are fixed one at a time; tuples
     * are produced in RID order.
     */
    class Scan
    {
      public:
        Scan(HeapFile &file, TxnId txn);
        ~Scan();

        /** @return false at end of file. */
        bool next(Tuple &out, Rid *rid = nullptr);

        void close();

      private:
        HeapFile &file_;
        TxnId txn_;
        std::size_t pageIdx_ = 0;
        std::uint16_t slot_ = 0;
        std::uint8_t *frame_ = nullptr;
        bool open_ = true;
    };

  private:
    friend class Scan;

    /** Locate (and fix) a page with room; appends pages as needed. */
    PageId findFreePage(std::uint16_t len, std::uint8_t *&frame);

    DbContext &ctx_;
    BufferPool &pool_;
    Volume &volume_;
    LockManager &locks_;
    WriteAheadLog &log_;
    const Schema *schema_;

    std::vector<PageId> pages_;
    std::uint64_t records_ = 0;
};

} // namespace cgp::db

#endif // CGP_DB_HEAPFILE_HH
