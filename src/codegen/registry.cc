#include "codegen/registry.hh"

#include <algorithm>
#include <utility>

#include "util/fnv.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cgp
{

FunctionTraits
FunctionTraits::tiny()
{
    FunctionTraits t;
    t.hotInstrs = 24;
    t.coldFraction = 0.6;
    t.decisionSites = 0;
    t.loops = false;
    return t;
}

FunctionTraits
FunctionTraits::small()
{
    FunctionTraits t;
    t.hotInstrs = 128;
    t.coldFraction = 0.8;
    t.decisionSites = 2;
    t.loops = false;
    return t;
}

FunctionTraits
FunctionTraits::medium()
{
    FunctionTraits t;
    t.hotInstrs = 288;
    t.coldFraction = 1.0;
    t.decisionSites = 3;
    t.loops = true;
    return t;
}

FunctionTraits
FunctionTraits::large()
{
    FunctionTraits t;
    t.hotInstrs = 576;
    t.coldFraction = 1.1;
    t.decisionSites = 4;
    t.loops = true;
    return t;
}

FunctionTraits
FunctionTraits::huge()
{
    FunctionTraits t;
    t.hotInstrs = 1152;
    t.coldFraction = 1.2;
    t.decisionSites = 5;
    t.loops = true;
    return t;
}

FunctionId
FunctionRegistry::declare(const std::string &name,
                          const FunctionTraits &traits)
{
    auto it = byName_.find(name);
    if (it != byName_.end())
        return it->second;

    return define(synthesize(static_cast<FunctionId>(functions_.size()),
                             name, traits));
}

FunctionId
FunctionRegistry::define(Function body)
{
    cgp_assert(byName_.count(body.name) == 0, "function '", body.name,
               "' declared twice");
    body.id = static_cast<FunctionId>(functions_.size());
    byName_.emplace(body.name, body.id);
    functions_.push_back(std::move(body));
    return functions_.back().id;
}

FunctionId
FunctionRegistry::lookup(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? invalidFunctionId : it->second;
}

std::uint64_t
FunctionRegistry::totalCodeBytes() const
{
    std::uint64_t total = 0;
    for (const auto &f : functions_)
        total += f.sizeBytes();
    return total;
}

Function
FunctionRegistry::synthesize(FunctionId id, const std::string &name,
                             const FunctionTraits &traits) const
{
    cgp_assert(traits.hotInstrs >= 4, "function '", name, "' too small");

    Function f;
    f.id = id;
    f.name = name;
    f.loops = traits.loops;

    // Seed from the name so bodies are stable across runs and across
    // declaration-order changes.
    Rng rng(fnv1a(name));

    // --- Hot walk -------------------------------------------------
    // Split hotInstrs into blocks of 4..12 instructions.
    std::uint32_t remaining = traits.hotInstrs;
    while (remaining > 0) {
        std::uint16_t len = static_cast<std::uint16_t>(
            std::min<std::uint64_t>(remaining,
                                    4 + rng.nextBelow(9)));
        if (remaining - len < 4 && remaining - len > 0) {
            // Avoid a trailing degenerate block.
            len = static_cast<std::uint16_t>(remaining);
        }
        remaining -= len;
        f.hotWalk.push_back(static_cast<std::uint16_t>(f.blocks.size()));
        f.blocks.push_back({len, BlockRole::Hot});
    }

    // --- Decision arms ---------------------------------------------
    for (unsigned d = 0; d < traits.decisionSites; ++d) {
        DecisionSite site;
        site.arm = static_cast<std::uint16_t>(f.blocks.size());
        f.blocks.push_back(
            {static_cast<std::uint16_t>(4 + rng.nextBelow(6)),
             BlockRole::Arm});
        f.decisions.push_back(site);
    }

    // --- Cold code --------------------------------------------------
    std::uint32_t cold_budget = static_cast<std::uint32_t>(
        static_cast<double>(traits.hotInstrs) * traits.coldFraction);
    while (cold_budget >= 4) {
        std::uint16_t len = static_cast<std::uint16_t>(
            std::min<std::uint64_t>(cold_budget, 4 + rng.nextBelow(13)));
        cold_budget -= len;
        f.blocks.push_back({len, BlockRole::Cold});
    }

    // --- Original (O5) intra-function layout -------------------------
    // Compilers emit blocks roughly in source order: hot and cold code
    // interleave, and a fraction of hot blocks are displaced so that
    // following the walk requires taken branches.  We build the order
    // by interleaving cold blocks among the hot walk and then
    // displacing ~30% of hot blocks toward the end.
    std::vector<std::uint16_t> order;
    std::vector<std::uint16_t> displaced;
    std::size_t cold_idx = 0;
    std::vector<std::uint16_t> cold_ids;
    std::vector<std::uint16_t> arm_ids;
    for (std::uint16_t i = 0;
         i < static_cast<std::uint16_t>(f.blocks.size()); ++i) {
        if (f.blocks[i].role == BlockRole::Cold)
            cold_ids.push_back(i);
        else if (f.blocks[i].role == BlockRole::Arm)
            arm_ids.push_back(i);
    }

    for (std::size_t w = 0; w < f.hotWalk.size(); ++w) {
        const std::uint16_t hot = f.hotWalk[w];
        if (w > 0 && rng.nextBool(0.02)) {
            displaced.push_back(hot);
        } else {
            order.push_back(hot);
        }
        // Sprinkle arms and cold blocks between hot blocks.
        if (!arm_ids.empty() && rng.nextBool(0.3)) {
            order.push_back(arm_ids.back());
            arm_ids.pop_back();
        }
        if (cold_idx < cold_ids.size() && rng.nextBool(0.05))
            order.push_back(cold_ids[cold_idx++]);
    }
    for (auto a : arm_ids)
        order.push_back(a);
    for (auto d : displaced)
        order.push_back(d);
    while (cold_idx < cold_ids.size())
        order.push_back(cold_ids[cold_idx++]);

    f.originalOrder = std::move(order);
    cgp_assert(f.originalOrder.size() == f.blocks.size(),
               "layout permutation incomplete for ", name);
    return f;
}

} // namespace cgp
