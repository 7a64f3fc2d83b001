/**
 * @file
 * DbSystem: the assembled database server (paper Figure 1's layer
 * stack).  One instance owns a volume, buffer pool, lock manager,
 * WAL, transaction manager and catalog, and exposes helpers for
 * creating/loading tables and indexes.  Query execution happens via
 * the operators in db/ops.
 */

#ifndef CGP_DB_DBSYS_HH
#define CGP_DB_DBSYS_HH

#include <memory>
#include <string>
#include <vector>

#include "db/buffer_pool.hh"
#include "db/catalog.hh"
#include "db/context.hh"
#include "db/lock.hh"
#include "db/txn.hh"
#include "db/volume.hh"
#include "db/wal.hh"

namespace cgp::db
{

struct DbConfig
{
    /** Buffer pool capacity in pages (size above the DB footprint
     *  so the working set is memory resident, per the paper). */
    std::size_t bufferFrames = 8192;

    /** Synthetic data-segment base of this instance's buffer pool. */
    Addr bufferSegment = bufferSegmentBase;
};

class DbSystem
{
  public:
    /** Records no trace until record() names a buffer, so the load
     *  phase leaves none. */
    explicit DbSystem(FunctionRegistry &registry,
                      const DbConfig &config = {});

    /** Create an empty table. */
    TableInfo &createTable(const std::string &name, Schema schema);

    /** Build a B+-tree on an INT32 column from existing rows. */
    BTree &createIndex(const std::string &table,
                       const std::string &column);

    /** Bulk-insert one tuple (load phase, outside measurement). */
    Rid insertRow(TxnId txn, const std::string &table,
                  const Tuple &tuple);

    /// @{ Component access.
    DbContext &ctx() { return ctx_; }
    Catalog &catalog() { return catalog_; }
    BufferPool &bufferPool() { return pool_; }
    Volume &volume() { return volume_; }
    LockManager &locks() { return locks_; }
    WriteAheadLog &log() { return log_; }
    TransactionManager &txns() { return txns_; }
    /// @}

    /** Retarget trace recording (per query thread). */
    void record(TraceBuffer &buffer) { ctx_.retarget(buffer); }

  private:
    DbContext ctx_;
    Volume volume_;
    BufferPool pool_;
    LockManager locks_;
    WriteAheadLog log_;
    TransactionManager txns_;
    Catalog catalog_;
};

} // namespace cgp::db

#endif // CGP_DB_DBSYS_HH
