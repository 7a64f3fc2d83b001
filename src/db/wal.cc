#include "db/wal.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cgp::db
{

Lsn
WriteAheadLog::append(TxnId txn, LogRecordType type, PageId page,
                      std::uint16_t slot)
{
    TraceScope ts(ctx_.rec, ctx_.fn.logAppend);
    ts.work(10);
    {
        TraceScope hs(ctx_.rec, ctx_.fn.logMutex);
        hs.work(5);
    }
    {
        TraceScope rs(ctx_.rec, ctx_.fn.logReserve);
        rs.work(5);
    }
    {
        TraceScope cs(ctx_.rec, ctx_.fn.logCopy);
        cs.work(6);
    }
    records_.push_back(LogRecord{next_++, txn, type, page, slot});
    return records_.back().lsn;
}

void
WriteAheadLog::force(Lsn lsn)
{
    TraceScope ts(ctx_.rec, ctx_.fn.logForce);
    ts.work(40);
    cgp_assert(lsn < next_, "forcing an unwritten LSN");
    durable_ = std::max(durable_, lsn);
}

} // namespace cgp::db
