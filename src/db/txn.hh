/**
 * @file
 * Transactions: id allocation, begin/commit with 2PL release and log
 * force at commit.
 *
 * An active-transaction table tracks every id from begin() to
 * commit; commit of an unknown or already-committed id is rejected
 * with a clear error instead of silently corrupting the active count.
 */

#ifndef CGP_DB_TXN_HH
#define CGP_DB_TXN_HH

#include <optional>
#include <unordered_map>

#include "db/common.hh"
#include "db/context.hh"
#include "db/lock.hh"
#include "db/wal.hh"

namespace cgp::db
{

enum class TxnState : std::uint8_t
{
    Active,
    Committed
};

class TransactionManager
{
  public:
    TransactionManager(DbContext &ctx, LockManager &locks,
                       WriteAheadLog &log)
        : ctx_(ctx), locks_(locks), log_(log)
    {
    }

    /** Start a transaction; logs a Begin record. */
    TxnId begin();

    /**
     * Commit: force the log, release all locks.
     * @return false (with an error event) if @p txn is unknown or
     *         already finished; the log and locks are untouched.
     */
    bool commit(TxnId txn);

    std::uint32_t active() const { return active_; }

    /** True while @p txn has begun and not yet committed. */
    bool isActive(TxnId txn) const;

    /** State of a known transaction; nullopt if never begun. */
    std::optional<TxnState> stateOf(TxnId txn) const;

  private:
    DbContext &ctx_;
    LockManager &locks_;
    WriteAheadLog &log_;
    TxnId next_ = 1;
    std::uint32_t active_ = 0;
    std::unordered_map<TxnId, TxnState> table_;
};

} // namespace cgp::db

#endif // CGP_DB_TXN_HH
