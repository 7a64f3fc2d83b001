#include "db/ops/index_select.hh"

#include "util/logging.hh"

namespace cgp::db
{

IndexSelect::IndexSelect(DbContext &ctx, BTree &index, HeapFile &file,
                         TxnId txn, std::int32_t lo, std::int32_t hi,
                         Predicate residual)
    : ctx_(ctx), index_(index), file_(file), txn_(txn), lo_(lo),
      hi_(hi), residual_(std::move(residual))
{
}

void
IndexSelect::open()
{
    TraceScope ts(ctx_.rec, ctx_.fn.idxSelOpen);
    ts.work(14);
    scan_.emplace(index_, txn_, lo_, hi_);
}

bool
IndexSelect::next(Tuple &out)
{
    TraceScope ts(ctx_.rec, ctx_.fn.idxSelNextC[ctx_.opClass()]);
    ts.work(13);
    {
        TraceScope hs(ctx_.rec, ctx_.fn.ridDecode);
        hs.work(5);
    }
    cgp_assert(scan_.has_value(), "next() before open()");

    std::int32_t key;
    Rid rid;
    while (scan_->next(key, rid)) {
        Tuple t = file_.getRec(txn_, rid);
        if (residual_.empty() ||
            residual_.eval(ctx_, t, callsite::indexSelect)) {
            out = t;
            return true;
        }
    }
    return false;
}

void
IndexSelect::close()
{
    TraceScope ts(ctx_.rec, ctx_.fn.idxSelClose);
    ts.work(5);
    if (scan_.has_value()) {
        scan_->close();
        scan_.reset();
    }
}

} // namespace cgp::db
