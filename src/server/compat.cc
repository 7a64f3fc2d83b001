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
    std::vector<TraceBuffer::Cursor> cursor;
    cursor.reserve(threads.size());
    for (const TraceBuffer *t : threads)
        cursor.emplace_back(*t);
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

        // Only the Switch is stored here; the stub and the slice
        // share the buffers they were recorded into.
        out.append(TraceEvent::make(EventKind::Switch, pick));
        if (switchStub != nullptr)
            out.appendRange(*switchStub, 0, switchStub->size());
        const TraceBuffer &t = *threads[pick];
        TraceBuffer::Cursor &c = cursor[pick];
        const std::size_t begin = c.position();
        TraceEvent e = TraceEvent::fromRaw(0);
        for (std::uint64_t used = 0; used < quantum && c.next(e);)
            used += eventCost(e);
        out.appendRange(t, begin, c.position());
        if (c.position() >= t.size()) {
            runnable.erase(
                std::find(runnable.begin(), runnable.end(), pick));
        }
    }
    return out;
}

} // namespace cgp::server
