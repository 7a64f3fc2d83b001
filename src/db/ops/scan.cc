#include "db/ops/scan.hh"

#include "util/logging.hh"

namespace cgp::db
{

SeqScan::SeqScan(DbContext &ctx, HeapFile &file, TxnId txn,
                 Predicate predicate)
    : ctx_(ctx), file_(file), txn_(txn),
      predicate_(std::move(predicate))
{
}

void
SeqScan::open()
{
    TraceScope ts(ctx_.rec, ctx_.fn.scanOpen);
    ts.work(14);
    scan_.emplace(file_, txn_);
}

bool
SeqScan::next(Tuple &out)
{
    TraceScope ts(ctx_.rec, ctx_.fn.scanNextC[ctx_.opClass()]);
    ts.work(13);
    {
        TraceScope hs(ctx_.rec, ctx_.fn.exprSetup);
        hs.work(5);
    }
    cgp_assert(scan_.has_value(), "next() before open()");

    Tuple t;
    while (scan_->next(t)) {
        ++scanned_;
        if (predicate_.empty() ||
            predicate_.eval(ctx_, t, callsite::seqScan)) {
            out = t;
            return true;
        }
    }
    return false;
}

void
SeqScan::close()
{
    TraceScope ts(ctx_.rec, ctx_.fn.scanClose);
    ts.work(5);
    if (scan_.has_value()) {
        scan_->close();
        scan_.reset();
    }
}

} // namespace cgp::db
