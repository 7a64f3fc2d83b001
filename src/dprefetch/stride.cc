#include "dprefetch/stride.hh"

#include <stdexcept>

#include "sample/checkpoint.hh"
#include "util/json.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace cgp
{

StrideDataPrefetcher::StrideDataPrefetcher(Cache &l1d,
                                           const StrideConfig &config)
    : l1d_(l1d), config_(config), table_(config.tableEntries)
{
    cgp_assert(config_.tableEntries > 0, "stride table needs entries");
    cgp_assert(isPowerOfTwo(config_.tableEntries),
               "stride table size must be a power of two");
    cgp_assert(config_.promoteAt > 0 &&
                   config_.promoteAt <= config_.maxConfidence,
               "promoteAt must lie within the confidence range");
}

std::size_t
StrideDataPrefetcher::indexOf(Addr pc) const
{
    // Instructions are 4-byte aligned; drop the low bits before
    // indexing so neighbouring PCs spread across the table.
    return static_cast<std::size_t>(
        (pc >> 2) & (config_.tableEntries - 1));
}

unsigned
StrideDataPrefetcher::confidenceFor(Addr pc) const
{
    const Entry &e = table_[indexOf(pc)];
    return e.pc == pc ? e.confidence : 0;
}

void
StrideDataPrefetcher::onAccess(Addr pc, Addr addr, bool is_write,
                               bool miss, Cycle now)
{
    (void)is_write;
    (void)miss;

    Entry &e = table_[indexOf(pc)];
    if (e.pc != pc) {
        // Tag mismatch: reallocate the slot to this PC.
        e.pc = pc;
        e.lastAddr = addr;
        e.stride = 0;
        e.confidence = 0;
        return;
    }

    const std::int64_t delta = static_cast<std::int64_t>(addr) -
        static_cast<std::int64_t>(e.lastAddr);
    e.lastAddr = addr;
    if (delta == 0)
        return;

    if (delta == e.stride) {
        if (e.confidence < config_.maxConfidence)
            ++e.confidence;
    } else {
        // Demotion: lose confidence first; only retrain the stride
        // once it reaches zero, so one stray access does not wipe a
        // well-established stream.
        if (e.confidence > 0) {
            --e.confidence;
        } else {
            e.stride = delta;
        }
        return;
    }

    if (e.confidence < config_.promoteAt)
        return;

    // Run ahead of the stream: prefetch the next `degree` strides,
    // skipping targets that land on the line being accessed (small
    // strides revisit it).
    const Addr cur_line = l1d_.lineAlign(addr);
    Addr prev_line = cur_line;
    for (unsigned k = 1; k <= config_.degree; ++k) {
        const Addr target = static_cast<Addr>(
            static_cast<std::int64_t>(addr) +
            e.stride * static_cast<std::int64_t>(k));
        const Addr line = l1d_.lineAlign(target);
        if (line == cur_line || line == prev_line)
            continue;
        prev_line = line;
        ++requested_;
        l1d_.prefetch(line, now, AccessSource::DataPrefetch);
    }
}

Json
StrideDataPrefetcher::saveState() const
{
    Json j = Json::object();
    j.set("entries",
          static_cast<std::uint64_t>(table_.size()));
    Json pcs = Json::array();
    Json lasts = Json::array();
    Json strides = Json::array();
    Json confs = Json::array();
    for (const Entry &e : table_) {
        pcs.push(e.pc);
        lasts.push(e.lastAddr);
        strides.push(static_cast<long long>(e.stride));
        confs.push(e.confidence);
    }
    j.set("pc", std::move(pcs));
    j.set("last_addr", std::move(lasts));
    j.set("stride", std::move(strides));
    j.set("confidence", std::move(confs));
    return j;
}

void
StrideDataPrefetcher::loadState(const Json &state)
{
    if (state.at("entries").asUint() != table_.size())
        throw std::runtime_error("stride table size mismatch");
    const Json &pcs = state.at("pc");
    const Json &lasts = state.at("last_addr");
    const Json &strides = state.at("stride");
    const Json &confs = state.at("confidence");
    if (pcs.size() != table_.size() || lasts.size() != table_.size() ||
        strides.size() != table_.size() ||
        confs.size() != table_.size()) {
        throw std::runtime_error("stride table field mismatch");
    }
    for (std::size_t i = 0; i < table_.size(); ++i) {
        table_[i].pc = pcs[i].asUint();
        table_[i].lastAddr = lasts[i].asUint();
        table_[i].stride = strides[i].asInt();
        table_[i].confidence =
            static_cast<unsigned>(confs[i].asUint());
    }
}

void
StrideDataPrefetcher::addCheckpointParts(sample::CheckpointParts &parts)
{
    parts.stride = this;
}

} // namespace cgp
