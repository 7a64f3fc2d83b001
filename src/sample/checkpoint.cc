#include "sample/checkpoint.hh"

#include <stdexcept>

#include "branch/predictor.hh"
#include "cpu/core.hh"
#include "dprefetch/correlation.hh"
#include "dprefetch/semantic.hh"
#include "dprefetch/stride.hh"
#include "mem/cache.hh"
#include "prefetch/cghc.hh"
#include "util/fnv.hh"

namespace cgp::sample
{

namespace
{

constexpr int checkpointFormat = 2;

std::string
toHex(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

/** Restore one optional section, demanding shape agreement. */
template <typename T>
void
applySection(const Json &state, const char *key, T *part)
{
    const Json &section = state.at(key);
    if (section.isNull() != (part == nullptr))
        throw std::runtime_error(
            std::string("checkpoint section '") + key +
            "' presence does not match the machine configuration");
    if (part != nullptr)
        part->loadState(section);
}

} // namespace

std::string
checkpointKey(const std::string &workload,
              const std::string &configLabel,
              std::uint64_t warmup_instrs)
{
    return "warm-" +
        toHex(fnv1a(workload + "|" + configLabel + "|" +
                    std::to_string(warmup_instrs)));
}

Json
buildCheckpoint(const CheckpointParts &parts,
                const std::string &workload,
                const std::string &configLabel,
                std::uint64_t warmup_instrs, std::uint64_t consumed)
{
    Json meta = Json::object();
    meta.set("format", checkpointFormat);
    meta.set("workload", workload);
    meta.set("config", configLabel);
    meta.set("warmup_instrs", warmup_instrs);
    meta.set("consumed", consumed);

    Json state = Json::object();
    state.set("l1i",
              parts.l1i ? parts.l1i->saveState() : Json(nullptr));
    state.set("l1d",
              parts.l1d ? parts.l1d->saveState() : Json(nullptr));
    state.set("l2",
              parts.l2 ? parts.l2->saveState() : Json(nullptr));
    state.set("branch",
              parts.branch ? parts.branch->saveState()
                           : Json(nullptr));
    state.set("cghc",
              parts.cghc ? parts.cghc->saveState() : Json(nullptr));
    state.set("stride",
              parts.stride ? parts.stride->saveState()
                           : Json(nullptr));
    state.set("correlation",
              parts.correlation ? parts.correlation->saveState()
                                : Json(nullptr));
    state.set("semantic",
              parts.semantic ? parts.semantic->saveState()
                             : Json(nullptr));

    Json core = Json::object();
    core.set("last_fetch_line",
             parts.core ? parts.core->lastFetchLine()
                        : invalidAddr);
    state.set("core", std::move(core));

    Json doc = Json::object();
    doc.set("meta", std::move(meta));
    doc.set("state", std::move(state));
    return doc;
}

std::uint64_t
checkCheckpoint(const Json &doc, const std::string &workload,
                const std::string &configLabel,
                std::uint64_t warmup_instrs)
{
    const Json &meta = doc.at("meta");
    if (meta.at("format").asInt() != checkpointFormat)
        throw std::runtime_error("unknown checkpoint format");
    if (meta.at("workload").asString() != workload ||
        meta.at("config").asString() != configLabel ||
        meta.at("warmup_instrs").asUint() != warmup_instrs)
        throw std::runtime_error(
            "checkpoint identity mismatch (workload/config/warmup)");
    const std::uint64_t consumed = meta.at("consumed").asUint();
    if (consumed > warmup_instrs)
        throw std::runtime_error(
            "checkpoint consumed count exceeds warmup budget");
    return consumed;
}

void
applyCheckpoint(const Json &doc, const CheckpointParts &parts)
{
    const Json &state = doc.at("state");
    applySection(state, "l1i", parts.l1i);
    applySection(state, "l1d", parts.l1d);
    applySection(state, "l2", parts.l2);
    applySection(state, "branch", parts.branch);
    applySection(state, "cghc", parts.cghc);
    applySection(state, "stride", parts.stride);
    applySection(state, "correlation", parts.correlation);
    applySection(state, "semantic", parts.semantic);
    if (parts.core)
        parts.core->setLastFetchLine(
            state.at("core").at("last_fetch_line").asUint());
}

} // namespace cgp::sample
