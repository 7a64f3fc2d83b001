/**
 * @file
 * Write-ahead log stub: append-only records with LSNs and a force()
 * operation at commit.
 *
 * Only the call sequence matters to the simulator, so a record keeps
 * its header and no images, and force() just advances the durable
 * LSN.  append() and force() are traced: their instruction streams
 * are part of every insert and commit.
 */

#ifndef CGP_DB_WAL_HH
#define CGP_DB_WAL_HH

#include <cstdint>
#include <vector>

#include "db/common.hh"
#include "db/context.hh"

namespace cgp::db
{

enum class LogRecordType : std::uint8_t
{
    Begin,
    Update,
    Insert,
    Commit
};

struct LogRecord
{
    Lsn lsn = 0;
    TxnId txn = invalidTxnId;
    LogRecordType type = LogRecordType::Update;
    PageId page = invalidPageId;
    std::uint16_t slot = 0;
};

class WriteAheadLog
{
  public:
    explicit WriteAheadLog(DbContext &ctx) : ctx_(ctx) {}

    /** Append a record; returns its LSN. */
    Lsn append(TxnId txn, LogRecordType type, PageId page = invalidPageId,
               std::uint16_t slot = 0);

    /** Force the log up to @p lsn (commit durability point). */
    void force(Lsn lsn);

    Lsn durableLsn() const { return durable_; }
    Lsn tailLsn() const { return next_; }
    const std::vector<LogRecord> &records() const { return records_; }

  private:
    DbContext &ctx_;
    std::vector<LogRecord> records_;
    Lsn next_ = 1;
    Lsn durable_ = 0;
};

} // namespace cgp::db

#endif // CGP_DB_WAL_HH
