#include "db/ops/sort.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cgp::db
{

Sort::Sort(DbContext &ctx, Operator &child, std::size_t key_col,
           bool descending, std::uint64_t limit)
    : ctx_(ctx), child_(child), keyCol_(key_col),
      descending_(descending), limit_(limit)
{
}

void
Sort::materialize()
{
    rows_.clear();
    Tuple t;
    while (child_.next(t))
        rows_.push_back(tracedCopy(ctx_, t));

    auto cmp = [this](const Tuple &a, const Tuple &b) {
        TraceScope cs(ctx_.rec, ctx_.fn.sortCompare);
        cs.work(6);
        const auto ka = a.getInt(keyCol_);
        const auto kb = b.getInt(keyCol_);
        return descending_ ? ka > kb : ka < kb;
    };
    std::stable_sort(rows_.begin(), rows_.end(), cmp);
    cursor_ = 0;
}

void
Sort::open()
{
    TraceScope ts(ctx_.rec, ctx_.fn.sortOpen);
    ts.work(22);
    child_.open();
    materialize();
}

bool
Sort::next(Tuple &out)
{
    TraceScope ts(ctx_.rec, ctx_.fn.sortNext);
    ts.work(5);
    if (cursor_ >= rows_.size())
        return false;
    if (limit_ != 0 && cursor_ >= limit_)
        return false;
    out = rows_[cursor_++];
    return true;
}

void
Sort::close()
{
    TraceScope ts(ctx_.rec, ctx_.fn.sortClose);
    ts.work(4);
    child_.close();
    rows_.clear();
}

} // namespace cgp::db
