#include "db/ops/operator.hh"

#include "util/logging.hh"

namespace cgp::db
{

Predicate &
Predicate::andInt(std::size_t col, CmpOp op, std::int32_t lo,
                  std::int32_t hi)
{
    Term t;
    t.col = col;
    t.op = op;
    t.lo = lo;
    t.hi = hi;
    terms_.push_back(t);
    return *this;
}

bool
Predicate::eval(DbContext &ctx, const Tuple &t, std::size_t site) const
{
    TraceScope ds(ctx.rec, ctx.fn.predDispatchC[ctx.opClass()]);
    ds.work(8);
    for (const Term &term : terms_) {
        TraceScope es(ctx.rec, ctx.fn.predEvalRangeC[ctx.opClass()]);
        es.work(8);
        const std::int32_t v = tracedGetInt(ctx, t, term.col, site);
        bool pass = false;
        switch (term.op) {
          case CmpOp::Eq:
            pass = v == term.lo;
            break;
          case CmpOp::Lt:
            pass = v < term.lo;
            break;
          case CmpOp::Le:
            pass = v <= term.lo;
            break;
          case CmpOp::Gt:
            pass = v > term.lo;
            break;
          case CmpOp::Ge:
            pass = v >= term.lo;
            break;
          case CmpOp::Between:
            pass = v >= term.lo && v <= term.hi;
            break;
        }
        es.branch(pass);
        if (!pass)
            return false;
    }
    return true;
}

std::int32_t
tracedGetInt(DbContext &ctx, const Tuple &t, std::size_t col,
             std::size_t site)
{
    TraceScope ts(ctx.rec, ctx.fn.tupGetIntC[ctx.opClass()]);
    (void)site;
    ts.work(5);
    return t.getInt(col);
}

std::uint64_t
tracedHash(DbContext &ctx, const Tuple &t, std::size_t col,
           std::size_t site)
{
    TraceScope ts(ctx.rec, ctx.fn.tupHash.site(site));
    ts.work(6);
    const auto v = static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(t.getInt(col)));
    return v * 0x9e3779b97f4a7c15ull;
}

Tuple
tracedCopy(DbContext &ctx, const Tuple &t, std::size_t site)
{
    TraceScope ts(ctx.rec, ctx.fn.tupCopy.site(site));
    ts.work(6);
    {
        TraceScope hs(ctx.rec, ctx.fn.memArenaAlloc);
        hs.work(6);
    }
    return t;
}

} // namespace cgp::db
