#include "dprefetch/stride.hh"

#include <algorithm>
#include <stdexcept>

#include "sample/checkpoint.hh"
#include "util/json.hh"

namespace cgp
{

StrideDataPrefetcher::StrideDataPrefetcher(Cache &l1d)
    : l1d_(l1d), table_(tableEntries)
{
}

std::size_t
StrideDataPrefetcher::indexOf(Addr pc) const
{
    // Instructions are 4-byte aligned; drop the low bits before
    // indexing so neighbouring PCs spread across the table.
    return static_cast<std::size_t>(
        (pc >> 2) & (tableEntries - 1));
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
        if (e.confidence < maxConfidence)
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

    if (e.confidence < promoteAt)
        return;

    // Run ahead of the stream: prefetch the next `degree` strides,
    // skipping targets that land on the line being accessed (small
    // strides revisit it).
    const Addr cur_line = l1d_.lineAlign(addr);
    Addr prev_line = cur_line;
    for (unsigned k = 1; k <= degree; ++k) {
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
    // Allocated entries only: an entry is written whole when a PC
    // claims it and never cleared, so an unclaimed one is still
    // default-constructed.
    j.set("empty",
          sample::emptyRuns(table_.size(), [this](std::size_t i) {
              return table_[i].pc != invalidAddr;
          }));
    Json pcs = Json::array();
    Json lasts = Json::array();
    Json strides = Json::array();
    Json confs = Json::array();
    for (const Entry &e : table_) {
        if (e.pc == invalidAddr)
            continue;
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
    const std::vector<std::size_t> filled =
        sample::filledSlots(state.at("empty"), table_.size(), "stride");
    const Json::Array &pcs =
        sample::slotValues(state, "pc", filled.size(), "stride");
    const Json::Array &lasts =
        sample::slotValues(state, "last_addr", filled.size(), "stride");
    const Json::Array &strides =
        sample::slotValues(state, "stride", filled.size(), "stride");
    const Json::Array &confs =
        sample::slotValues(state, "confidence", filled.size(), "stride");
    std::fill(table_.begin(), table_.end(), Entry{});
    for (std::size_t k = 0; k < filled.size(); ++k) {
        Entry &e = table_[filled[k]];
        e.pc = pcs[k].asUint();
        if (e.pc == invalidAddr)
            throw std::runtime_error(
                "stride checkpoint fills an empty entry");
        e.lastAddr = lasts[k].asUint();
        e.stride = strides[k].asInt();
        e.confidence = static_cast<unsigned>(confs[k].asUint());
    }
}

void
StrideDataPrefetcher::addCheckpointParts(sample::CheckpointParts &parts)
{
    parts.stride = this;
}

} // namespace cgp
