#include "server/compat.hh"

#include <algorithm>

#include "server/metering.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cgp::server
{

TraceBuffer
legacyMerge(const std::vector<const TraceBuffer *> &threads,
            std::uint64_t quantumInstrs, const TraceBuffer *switchStub)
{
    cgp_assert(!threads.empty(), "no threads to interleave");
    cgp_assert(quantumInstrs > 0, "zero scheduling quantum");
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < threads.size(); ++i) {
        cgp_assert(threads[i] != nullptr, "null thread trace");
        if (!threads[i]->empty())
            runnable.push_back(i);
    }

    Rng rng(0x5c4ed);
    std::vector<std::size_t> cursor(threads.size(), 0);
    std::size_t last = ~std::size_t{0};
    TraceBuffer out;
    while (!runnable.empty()) {
        // One pick, one conditional re-pick, then the quantum draw:
        // rng call order is part of the byte-compat contract.
        std::size_t pick = runnable[rng.nextBelow(runnable.size())];
        if (runnable.size() > 1 && pick == last)
            pick = runnable[rng.nextBelow(runnable.size())];
        last = pick;
        const std::uint64_t quantum =
            quantumInstrs / 2 + rng.nextBelow(quantumInstrs);

        out.append(TraceEvent::make(EventKind::Switch, pick));
        if (switchStub != nullptr) {
            for (std::size_t i = 0; i < switchStub->size(); ++i)
                out.append(switchStub->at(i));
        }
        const TraceBuffer &t = *threads[pick];
        std::size_t &c = cursor[pick];
        for (std::uint64_t used = 0; c < t.size() && used < quantum;
             ++c) {
            used += eventCost(t.at(c));
            out.append(t.at(c));
        }
        if (c >= t.size()) {
            runnable.erase(
                std::find(runnable.begin(), runnable.end(), pick));
        }
    }
    return out;
}

} // namespace cgp::server
