#include "gate.hh"

namespace perfbench
{

using cgp::PrefetchBreakdown;
using cgp::SimResult;

namespace
{

void
checkSource(std::vector<std::string> &out, const char *name,
            const PrefetchBreakdown &b)
{
    if (b.prefHits + b.delayedHits + b.useless > b.issued) {
        out.push_back(std::string(name) +
                      ": pref_hits + delayed_hits + useless > issued");
    }
}

void
checkCache(std::vector<std::string> &out, const std::string &name,
           std::uint64_t accesses, std::uint64_t misses)
{
    if (misses > accesses)
        out.push_back(name + ": misses > accesses");
}

} // namespace

std::vector<std::string>
checkIdentities(const SimResult &r)
{
    std::vector<std::string> out;
    if (r.prefetchDegraded)
        out.push_back("prefetch degraded: " + r.degradedReason);
    checkSource(out, "nl", r.nl);
    checkSource(out, "cghc", r.cghc);
    checkSource(out, "dpf", r.dpf);
    checkCache(out, "l1i", r.icacheAccesses, r.icacheMisses);
    checkCache(out, "l1d", r.dcacheAccesses, r.dcacheMisses);

    if (r.serverEnabled) {
        std::uint64_t instrs = 0;
        std::uint64_t lines = 0;
        for (std::size_t i = 0; i < r.server.perCore.size(); ++i) {
            const auto &c = r.server.perCore[i];
            instrs += c.instrs;
            lines += c.busLines;
            const std::string core = "core" + std::to_string(i);
            checkCache(out, core + ".l1i", c.icacheAccesses,
                       c.icacheMisses);
            checkCache(out, core + ".l1d", c.dcacheAccesses,
                       c.dcacheMisses);
        }
        const std::uint64_t committed = r.sampledEnabled
            ? r.instrs - r.sampled.warmedInstrs
            : r.instrs;
        if (instrs != committed)
            out.push_back("per-core instrs do not sum to the aggregate");
        if (lines != r.busLines)
            out.push_back("per-core bus lines do not sum to the aggregate");
    }
    return out;
}

std::vector<std::string>
checkInstrs(const SimResult &r, std::uint64_t drained)
{
    if (r.instrs == drained)
        return {};
    return {"instrs " + std::to_string(r.instrs) +
            " != expander drain " + std::to_string(drained)};
}

std::vector<std::string>
checkEqual(const SimResult &r, const SimResult &expected,
           const std::string &what)
{
    if (r == expected)
        return {};
    return {"result differs from the " + what};
}

SimResult
forgeViolation(SimResult r)
{
    r.cghc.useless = r.cghc.issued + 1;
    return r;
}

void
Gate::attempt(const std::string &job,
              const std::vector<std::string> &violations)
{
    ++attempted_;
    if (violations.empty())
        return;
    ++failed_;
    for (const std::string &v : violations)
        reasons_.push_back(job + ": " + v);
}

} // namespace perfbench
