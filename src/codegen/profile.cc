#include "codegen/profile.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace cgp
{

void
ExecutionProfile::addCall(Counts &c, FunctionId callee, std::uint64_t w)
{
    for (CallEdge &e : c.callees) {
        if (e.callee == callee) {
            e.weight += w;
            std::swap(e, c.callees.front());
            return;
        }
    }
    c.callees.push_back({callee, w});
    std::swap(c.callees.back(), c.callees.front());
}

void
ExecutionProfile::addBlockEdge(Counts &c, std::uint16_t from,
                               std::uint16_t to, std::uint64_t w)
{
    if (from >= c.firstFrom.size())
        c.firstFrom.resize(static_cast<std::size_t>(from) + 1, noEdge);
    // Walk the source's chain; the hit moves to its front.
    for (std::uint32_t *link = &c.firstFrom[from]; *link != noEdge;
         link = &c.nextFrom[*link]) {
        const std::uint32_t i = *link;
        if (c.blockEdges[i].to == to) {
            c.blockEdges[i].weight += w;
            *link = c.nextFrom[i];
            c.nextFrom[i] = c.firstFrom[from];
            c.firstFrom[from] = i;
            return;
        }
    }
    c.nextFrom.push_back(c.firstFrom[from]);
    c.firstFrom[from] = static_cast<std::uint32_t>(c.blockEdges.size());
    c.blockEdges.push_back({from, to, w});
}

void
ExecutionProfile::merge(const ExecutionProfile &other)
{
    cgp_assert(&other != this, "cannot merge a profile into itself");
    for (FunctionId fid = 0; fid < other.funcs_.size(); ++fid) {
        const Counts &theirs = other.funcs_[fid];
        Counts &mine = counts(fid);
        mine.entries += theirs.entries;
        for (const CallEdge &e : theirs.callees)
            addCall(mine, e.callee, e.weight);
        for (const BlockEdge &e : theirs.blockEdges)
            addBlockEdge(mine, e.from, e.to, e.weight);
    }
    totalCalls_ += other.totalCalls_;
}

std::span<const ExecutionProfile::CallEdge>
ExecutionProfile::callees(FunctionId caller) const
{
    if (caller >= funcs_.size())
        return {};
    return funcs_[caller].callees;
}

std::span<const ExecutionProfile::BlockEdge>
ExecutionProfile::blockEdges(FunctionId fid) const
{
    if (fid >= funcs_.size())
        return {};
    return funcs_[fid].blockEdges;
}

std::uint64_t
ExecutionProfile::entryCount(FunctionId fid) const
{
    return fid < funcs_.size() ? funcs_[fid].entries : 0;
}

CallGraphAnalyzer::CallGraphAnalyzer(const ExecutionProfile &profile)
{
    for (FunctionId fid = 0; fid < profile.functionCount(); ++fid) {
        if (const std::size_t n = profile.callees(fid).size())
            calleeCounts_.push_back(n);
    }
}

double
CallGraphAnalyzer::fractionWithFewerCalleesThan(std::size_t n) const
{
    if (calleeCounts_.empty())
        return 1.0;
    const auto below = std::count_if(
        calleeCounts_.begin(), calleeCounts_.end(),
        [n](std::size_t c) { return c < n; });
    return static_cast<double>(below)
        / static_cast<double>(calleeCounts_.size());
}

std::size_t
CallGraphAnalyzer::maxDistinctCallees() const
{
    if (calleeCounts_.empty())
        return 0;
    return *std::max_element(calleeCounts_.begin(), calleeCounts_.end());
}

} // namespace cgp
