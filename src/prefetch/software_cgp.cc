#include "prefetch/software_cgp.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cgp
{

SoftwareCgpPrefetcher::SoftwareCgpPrefetcher(
    Cache &l1i, const FunctionRegistry &registry,
    const CodeImage &image, const ExecutionProfile &profile,
    unsigned depth, unsigned max_callees)
    : l1i_(l1i), nl_(l1i, depth, AccessSource::PrefetchNL),
      depth_(depth)
{
    cgp_assert(depth > 0, "software CGP depth must be positive");
    cgp_assert(max_callees > 0, "need at least one callee slot");

    // "Compile" the prefetch schedule: for every profiled caller,
    // order its callees by observed frequency and keep the top
    // max_callees — these are the targets of the inserted prefetch
    // instructions at the function's successive call sites.
    std::vector<std::pair<std::uint64_t, FunctionId>> callees;
    for (FunctionId caller = 0; caller < profile.functionCount();
         ++caller) {
        const auto edges = profile.callees(caller);
        if (edges.empty())
            continue;
        callees.clear();
        for (const auto &e : edges)
            callees.push_back({e.weight, e.callee});
        std::sort(callees.rbegin(), callees.rend());
        FuncInfo info;
        for (const auto &[w, callee] : callees) {
            (void)w;
            if (info.callees.size() >= max_callees)
                break;
            info.callees.push_back(image.funcStart(callee));
        }
        if (caller < registry.size())
            table_.emplace(image.funcStart(caller), std::move(info));
    }
}

void
SoftwareCgpPrefetcher::prefetchFunction(Addr func_start, Cycle now)
{
    const Addr line = l1i_.lineBytes();
    const Addr base = l1i_.lineAlign(func_start);
    for (unsigned i = 0; i < depth_; ++i) {
        // Software prefetches charge the same classification path as
        // CGHC-issued ones so the benches can compare them directly.
        l1i_.prefetch(base + i * line, now,
                      AccessSource::PrefetchCGHC);
    }
}

void
SoftwareCgpPrefetcher::onFetchLine(Addr line_addr, Cycle now)
{
    nl_.onFetchLine(line_addr, now);
}

void
SoftwareCgpPrefetcher::onCall(Addr callee_start, Addr caller_start,
                              Cycle now)
{
    (void)caller_start;
    if (callee_start == invalidAddr)
        return;
    // The inserted instructions at the callee's entry prefetch its
    // statically most likely first callee.
    auto it = table_.find(callee_start);
    if (it == table_.end())
        return;
    it->second.cursor = 0;
    if (!it->second.callees.empty()) {
        prefetchFunction(it->second.callees.front(), now + 1);
        it->second.cursor = 1;
    }
}

void
SoftwareCgpPrefetcher::onReturn(Addr returnee_start,
                                Addr returning_start, Cycle now)
{
    (void)returning_start;
    if (returnee_start == invalidAddr)
        return;
    // The instructions after each call site prefetch the next
    // statically scheduled callee.
    auto it = table_.find(returnee_start);
    if (it == table_.end())
        return;
    FuncInfo &info = it->second;
    if (info.cursor < info.callees.size()) {
        prefetchFunction(info.callees[info.cursor], now + 1);
        ++info.cursor;
    }
}

} // namespace cgp
