#include "db/ops/aggregate.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace cgp::db
{

namespace
{

Schema
makeOutSchema(const std::vector<std::size_t> &group_cols,
              const Schema &in, const std::vector<AggSpec> &aggs)
{
    std::vector<Column> cols;
    for (std::size_t g : group_cols) {
        Column c = in.column(g);
        c.type = ColumnType::Int32;
        c.width = 4;
        cols.push_back(c);
    }
    for (const AggSpec &a : aggs)
        cols.push_back(Column{a.name, ColumnType::Int32, 4});
    return Schema(std::move(cols));
}

} // anonymous namespace

HashAggregate::HashAggregate(DbContext &ctx, Operator &child,
                             std::vector<std::size_t> group_cols,
                             std::vector<AggSpec> aggs)
    : ctx_(ctx), child_(child), groupCols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      outSchema_(makeOutSchema(groupCols_, *child.schema(), aggs_))
{
    cgp_assert(!aggs_.empty(), "aggregate without aggregates");
}

void
HashAggregate::consumeChild()
{
    Tuple t;
    while (child_.next(t)) {
        TraceScope as(ctx_.rec, ctx_.fn.aggAccumC[ctx_.opClass()]);
        as.work(11);
        {
            TraceScope hs(ctx_.rec, ctx_.fn.groupHash);
            hs.work(5);
        }

        std::vector<std::int32_t> key;
        key.reserve(groupCols_.size());
        for (std::size_t g : groupCols_)
            key.push_back(tracedGetInt(ctx_, t, g, callsite::agg));

        auto [it, fresh] = groups_.try_emplace(key);
        as.branch(fresh);
        GroupState &gs = it->second;
        if (fresh) {
            gs.acc.resize(aggs_.size(), 0);
            gs.count.resize(aggs_.size(), 0);
            for (std::size_t a = 0; a < aggs_.size(); ++a) {
                if (aggs_[a].kind == AggKind::Min)
                    gs.acc[a] = std::numeric_limits<std::int32_t>::max();
                if (aggs_[a].kind == AggKind::Max)
                    gs.acc[a] = std::numeric_limits<std::int32_t>::min();
            }
        }
        for (std::size_t a = 0; a < aggs_.size(); ++a) {
            const AggSpec &spec = aggs_[a];
            switch (spec.kind) {
              case AggKind::Count:
                ++gs.acc[a];
                break;
              case AggKind::Sum:
              case AggKind::Avg:
                gs.acc[a] += tracedGetInt(ctx_, t, spec.col,
                                          callsite::agg);
                ++gs.count[a];
                break;
              case AggKind::Min:
                gs.acc[a] = std::min<std::int64_t>(
                    gs.acc[a],
                    tracedGetInt(ctx_, t, spec.col, callsite::agg));
                break;
              case AggKind::Max:
                gs.acc[a] = std::max<std::int64_t>(
                    gs.acc[a],
                    tracedGetInt(ctx_, t, spec.col, callsite::agg));
                break;
            }
        }
    }
    materialized_ = true;
    cursor_ = groups_.begin();
}

void
HashAggregate::open()
{
    TraceScope ts(ctx_.rec, ctx_.fn.aggOpen);
    ts.work(15);
    child_.open();
    groups_.clear();
    materialized_ = false;
    consumeChild();
}

bool
HashAggregate::next(Tuple &out)
{
    TraceScope ts(ctx_.rec, ctx_.fn.aggNext);
    ts.work(8);
    cgp_assert(materialized_, "next() before open()");
    if (cursor_ == groups_.end())
        return false;

    Tuple t(&outSchema_);
    std::size_t col = 0;
    for (std::int32_t k : cursor_->first)
        t.setInt(col++, k);
    const GroupState &gs = cursor_->second;
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
        std::int64_t v = gs.acc[a];
        if (aggs_[a].kind == AggKind::Avg && gs.count[a] > 0)
            v /= gs.count[a];
        t.setInt(col++, static_cast<std::int32_t>(v));
    }
    out = t;
    ++cursor_;
    return true;
}

void
HashAggregate::close()
{
    TraceScope ts(ctx_.rec, ctx_.fn.aggClose);
    ts.work(5);
    child_.close();
    groups_.clear();
    materialized_ = false;
}

} // namespace cgp::db
