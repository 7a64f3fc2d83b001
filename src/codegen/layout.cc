#include "codegen/layout.hh"

#include <algorithm>
#include <numeric>

#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cgp
{

const char *
layoutName(LayoutKind kind)
{
    switch (kind) {
      case LayoutKind::Original:
        return "O5";
      case LayoutKind::PettisHansen:
        return "O5+OM";
    }
    return "?";
}

CodeImage
LayoutBuilder::buildOriginal() const
{
    std::vector<FunctionId> func_order(registry_.size());
    std::iota(func_order.begin(), func_order.end(), 0u);
    // Link order in an unoptimized binary is object-file order —
    // essentially arbitrary with respect to dynamic call patterns
    // (and in particular not systematically strided the way our
    // declaration order is).  A deterministic shuffle models that.
    Rng rng(0x0'5eed);
    rng.shuffle(func_order);

    std::vector<std::vector<std::uint16_t>> block_orders;
    block_orders.reserve(registry_.size());
    for (const auto &f : registry_.functions())
        block_orders.push_back(f.originalOrder);

    return assemble(LayoutKind::Original, func_order, block_orders,
                    /*padded=*/true);
}

CodeImage
LayoutBuilder::buildPettisHansen(const ExecutionProfile &profile) const
{
    const auto func_order = orderFunctionsPettisHansen(profile);

    std::vector<std::vector<std::uint16_t>> block_orders;
    block_orders.reserve(registry_.size());
    for (const auto &f : registry_.functions())
        block_orders.push_back(orderBlocksPettisHansen(f, profile));

    return assemble(LayoutKind::PettisHansen, func_order, block_orders,
                    /*padded=*/false);
}

CodeImage
LayoutBuilder::build(LayoutKind kind,
                     const ExecutionProfile &profile) const
{
    return kind == LayoutKind::Original ? buildOriginal()
                                        : buildPettisHansen(profile);
}

std::vector<std::uint16_t>
LayoutBuilder::orderBlocksPettisHansen(
    const Function &f, const ExecutionProfile &profile) const
{
    // Pettis-Hansen bottom-up chaining over profiled block edges:
    // process edges heaviest first; join two chains when the edge
    // connects one chain's tail to another chain's head.  Then emit
    // the entry chain first, remaining chains by weight, and
    // never-executed (cold) blocks last in original relative order.
    const auto edges = profile.blockEdges(f.id);

    const std::size_t n = f.blocks.size();
    std::vector<int> chainOf(n);
    std::iota(chainOf.begin(), chainOf.end(), 0);
    std::vector<std::vector<std::uint16_t>> chains(n);
    for (std::uint16_t i = 0; i < n; ++i)
        chains[i] = {i};

    std::vector<std::pair<std::uint64_t,
                          std::pair<std::uint16_t, std::uint16_t>>>
        sorted;
    sorted.reserve(edges.size());
    for (const auto &e : edges)
        sorted.push_back({e.weight, {e.from, e.to}});
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second; // deterministic tie-break
              });

    const std::uint16_t entry = f.hotWalk.empty() ? 0 : f.hotWalk[0];

    for (const auto &[w, e] : sorted) {
        (void)w;
        const auto [from, to] = e;
        // The entry block must stay at the function head, so it can
        // never become a chain's interior via an incoming edge.
        if (to == entry)
            continue;
        const int cf = chainOf[from];
        const int ct = chainOf[to];
        if (cf == ct)
            continue;
        if (chains[cf].back() != from || chains[ct].front() != to)
            continue;
        for (auto b : chains[ct]) {
            chainOf[b] = cf;
            chains[cf].push_back(b);
        }
        chains[ct].clear();
    }

    // Chain weight = sum of the weights of the edges at its blocks.
    std::vector<std::uint64_t> weight(n, 0);
    for (const auto &e : edges) {
        weight[chainOf[e.from]] += e.weight;
        weight[chainOf[e.to]] += e.weight;
    }

    const int entry_chain = chainOf[entry];

    std::vector<int> chain_ids;
    for (std::size_t c = 0; c < chains.size(); ++c) {
        if (!chains[c].empty() && static_cast<int>(c) != entry_chain)
            chain_ids.push_back(static_cast<int>(c));
    }
    std::sort(chain_ids.begin(), chain_ids.end(),
              [&](int a, int b) {
                  const auto wa = weight[a];
                  const auto wb = weight[b];
                  if (wa != wb)
                      return wa > wb;
                  return a < b;
              });

    std::vector<std::uint16_t> out;
    out.reserve(n);
    auto emit_chain = [&out](const std::vector<std::uint16_t> &c) {
        out.insert(out.end(), c.begin(), c.end());
    };
    emit_chain(chains[entry_chain]);
    // Split profiled chains from unprofiled singleton (cold) chains:
    // profiled first by weight, cold afterwards in original order.
    std::vector<int> hot_chains;
    std::vector<std::uint16_t> cold_blocks;
    for (int c : chain_ids) {
        if (weight[c] > 0) {
            hot_chains.push_back(c);
        } else {
            for (auto b : chains[c])
                cold_blocks.push_back(b);
        }
    }
    for (int c : hot_chains)
        emit_chain(chains[c]);

    // Cold blocks in original relative order for determinism
    // (originalOrder is a permutation of the blocks).
    std::vector<std::size_t> position(n);
    for (std::size_t i = 0; i < n; ++i)
        position[f.originalOrder[i]] = i;
    std::sort(cold_blocks.begin(), cold_blocks.end(),
              [&position](std::uint16_t a, std::uint16_t b) {
                  return position[a] < position[b];
              });
    out.insert(out.end(), cold_blocks.begin(), cold_blocks.end());

    cgp_assert(out.size() == n, "PH block order lost blocks in ",
               f.name);
    return out;
}

std::vector<FunctionId>
LayoutBuilder::orderFunctionsPettisHansen(
    const ExecutionProfile &profile) const
{
    // Closest-is-best: chain functions along heavy call edges so that
    // frequent caller/callee pairs are adjacent in memory.
    const std::size_t n = registry_.size();
    std::vector<int> chainOf(n);
    std::iota(chainOf.begin(), chainOf.end(), 0);
    std::vector<std::vector<FunctionId>> chains(n);
    for (FunctionId i = 0; i < n; ++i)
        chains[i] = {i};

    std::vector<std::pair<std::uint64_t,
                          std::pair<FunctionId, FunctionId>>> sorted;
    for (FunctionId caller = 0; caller < profile.functionCount();
         ++caller) {
        for (const auto &e : profile.callees(caller)) {
            if (caller != e.callee)
                sorted.push_back({e.weight, {caller, e.callee}});
        }
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });

    for (const auto &[w, e] : sorted) {
        (void)w;
        const auto [caller, callee] = e;
        const int cc = chainOf[caller];
        const int ce = chainOf[callee];
        if (cc == ce)
            continue;
        // Closest-is-best merges whole chains; orientation keeps the
        // caller chain before the callee chain.
        for (auto f : chains[ce]) {
            chainOf[f] = cc;
            chains[cc].push_back(f);
        }
        chains[ce].clear();
    }

    // Order chains by their heaviest member's entry count so the
    // hottest cluster sits first; unprofiled functions keep original
    // relative order at the end.
    std::vector<int> chain_ids;
    for (std::size_t c = 0; c < chains.size(); ++c) {
        if (!chains[c].empty())
            chain_ids.push_back(static_cast<int>(c));
    }
    std::vector<std::uint64_t> chain_weight(n, 0);
    for (int c : chain_ids) {
        for (auto f : chains[c])
            chain_weight[c] += profile.entryCount(f);
    }
    std::stable_sort(chain_ids.begin(), chain_ids.end(),
                     [&chain_weight](int a, int b) {
                         return chain_weight[a] > chain_weight[b];
                     });

    std::vector<FunctionId> out;
    out.reserve(n);
    for (int c : chain_ids) {
        for (auto f : chains[c])
            out.push_back(f);
    }
    cgp_assert(out.size() == n, "PH function order lost functions");
    return out;
}

CodeImage
LayoutBuilder::assemble(
    LayoutKind kind, const std::vector<FunctionId> &func_order,
    const std::vector<std::vector<std::uint16_t>> &block_orders,
    bool padded) const
{
    CodeImage image;
    image.kind_ = kind;
    image.funcs_.resize(registry_.size());
    image.order_ = func_order;

    Addr cursor = CodeImage::textBase;
    for (const FunctionId fid : func_order) {
        const Function &f = registry_.function(fid);
        const auto &order = block_orders[fid];
        cgp_assert(order.size() == f.blocks.size(),
                   "block order size mismatch in ", f.name);

        // Functions start cache-line aligned (32B lines, paper Table 1).
        cursor = alignUp(cursor, 32);

        auto &fe = image.funcs_[fid];
        fe.blockAddrs.assign(f.blocks.size(), invalidAddr);

        Addr fcursor = cursor;
        for (std::uint16_t pos = 0; pos < order.size(); ++pos) {
            const std::uint16_t b = order[pos];
            fe.blockAddrs[b] = fcursor;
            fcursor += f.blocks[b].sizeBytes();
        }
        fe.base = fe.blockAddrs[order[0]];
        cursor = fcursor;

        if (padded) {
            // The unoptimized binary carries alignment padding and
            // literal pools between functions; deterministic per-id.
            cursor += 8 + (fid * 37) % 40;
        }
    }
    image.limit_ = cursor;

    image.walkBegin_.reserve(registry_.size() + 1);
    for (const Function &f : registry_.functions()) {
        const auto &fe = image.funcs_[f.id];
        image.walkBegin_.push_back(
            static_cast<std::uint32_t>(image.walk_.size()));
        for (const std::uint16_t b : f.hotWalk)
            image.walk_.push_back(
                {fe.blockAddrs[b], f.blocks[b].instrs, b});
        for (const BasicBlock &b : f.blocks)
            image.maxBlockInstrs_ =
                std::max(image.maxBlockInstrs_, b.instrs);
    }
    image.walkBegin_.push_back(
        static_cast<std::uint32_t>(image.walk_.size()));
    return image;
}

} // namespace cgp
