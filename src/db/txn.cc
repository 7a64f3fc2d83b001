#include "db/txn.hh"

#include "util/logging.hh"

namespace cgp::db
{

TxnId
TransactionManager::begin()
{
    TraceScope ts(ctx_.rec, ctx_.fn.txnBegin);
    ts.work(12);
    const TxnId id = next_++;
    log_.append(id, LogRecordType::Begin);
    table_[id] = TxnState::Active;
    ++active_;
    return id;
}

bool
TransactionManager::isActive(TxnId txn) const
{
    auto it = table_.find(txn);
    return it != table_.end() && it->second == TxnState::Active;
}

std::optional<TxnState>
TransactionManager::stateOf(TxnId txn) const
{
    auto it = table_.find(txn);
    if (it == table_.end())
        return std::nullopt;
    return it->second;
}

bool
TransactionManager::commit(TxnId txn)
{
    TraceScope ts(ctx_.rec, ctx_.fn.txnCommit);
    ts.work(18);
    auto it = table_.find(txn);
    if (it == table_.end()) {
        cgp_error("commit of unknown transaction ", txn);
        return false;
    }
    if (it->second != TxnState::Active) {
        cgp_error("commit of committed transaction ", txn);
        return false;
    }
    log_.force(log_.append(txn, LogRecordType::Commit));
    it->second = TxnState::Committed;
    locks_.releaseAll(txn);
    cgp_assert(active_ > 0, "commit with no active transactions");
    --active_;
    return true;
}

} // namespace cgp::db
