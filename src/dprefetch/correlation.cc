#include "dprefetch/correlation.hh"

#include <stdexcept>

#include "sample/checkpoint.hh"
#include "util/json.hh"

#include <algorithm>

namespace cgp
{

CorrelationDataPrefetcher::CorrelationDataPrefetcher(Cache &l1d)
    : l1d_(l1d), table_(entries)
{
}

std::size_t
CorrelationDataPrefetcher::setBase(Addr line) const
{
    const std::uint64_t h =
        (line / l1d_.lineBytes()) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>((h >> 17) & (sets - 1)) *
        assoc;
}

CorrelationDataPrefetcher::Entry *
CorrelationDataPrefetcher::find(Addr line)
{
    const std::size_t base = setBase(line);
    for (std::uint32_t w = 0; w < assoc; ++w) {
        Entry &e = table_[base + w];
        if (e.valid && e.tag == line)
            return &e;
    }
    return nullptr;
}

const CorrelationDataPrefetcher::Entry *
CorrelationDataPrefetcher::find(Addr line) const
{
    return const_cast<CorrelationDataPrefetcher *>(this)->find(line);
}

CorrelationDataPrefetcher::Entry &
CorrelationDataPrefetcher::findOrAlloc(Addr line)
{
    if (Entry *e = find(line); e != nullptr) {
        e->lru = ++tick_;
        return *e;
    }
    const std::size_t base = setBase(line);
    std::size_t victim = base;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        Entry &e = table_[base + w];
        if (!e.valid) {
            victim = base + w;
            break;
        }
        if (e.lru < table_[victim].lru)
            victim = base + w;
    }
    Entry &v = table_[victim];
    if (v.valid)
        ++evictions_;
    v.valid = true;
    v.tag = line;
    v.succ.clear();
    v.lru = ++tick_;
    return v;
}

void
CorrelationDataPrefetcher::record(Addr prev_line, Addr line)
{
    Entry &e = findOrAlloc(prev_line);
    auto it = std::find(e.succ.begin(), e.succ.end(), line);
    if (it != e.succ.end())
        e.succ.erase(it);
    e.succ.insert(e.succ.begin(), line);
    if (e.succ.size() > successors)
        e.succ.resize(successors);
}

void
CorrelationDataPrefetcher::onMiss(Addr pc, Addr addr, Cycle now)
{
    (void)pc;
    const Addr line = l1d_.lineAlign(addr);

    if (lastMissLine_ != invalidAddr && lastMissLine_ != line)
        record(lastMissLine_, line);
    lastMissLine_ = line;

    // Prefetch the most recent recorded successors.
    const Entry *e = find(line);
    if (e == nullptr)
        return;
    const std::size_t n = std::min<std::size_t>(degree, e->succ.size());
    for (std::size_t i = 0; i < n; ++i) {
        ++requested_;
        l1d_.prefetch(e->succ[i], now, AccessSource::DataPrefetch);
    }
}

std::size_t
CorrelationDataPrefetcher::entryCount() const
{
    std::size_t n = 0;
    for (const Entry &e : table_)
        n += e.valid ? 1 : 0;
    return n;
}

std::vector<Addr>
CorrelationDataPrefetcher::successorsOf(Addr line) const
{
    const Entry *e = find(line);
    return e == nullptr ? std::vector<Addr>{} : e->succ;
}

Json
CorrelationDataPrefetcher::saveState() const
{
    Json j = Json::object();
    j.set("entries",
          static_cast<std::uint64_t>(table_.size()));
    j.set("tick", tick_);
    j.set("last_miss_line", lastMissLine_);
    // Valid entries only: no path invalidates an entry, so every
    // invalid one is still default-constructed.
    j.set("empty",
          sample::emptyRuns(table_.size(), [this](std::size_t i) {
              return table_[i].valid;
          }));
    Json rows = Json::array();
    for (const Entry &e : table_) {
        if (!e.valid)
            continue;
        Json je = Json::object();
        je.set("tag", e.tag);
        je.set("lru", e.lru);
        Json succ = Json::array();
        for (Addr a : e.succ)
            succ.push(a);
        je.set("succ", std::move(succ));
        rows.push(std::move(je));
    }
    j.set("table", std::move(rows));
    return j;
}

void
CorrelationDataPrefetcher::loadState(const Json &state)
{
    if (state.at("entries").asUint() != table_.size())
        throw std::runtime_error("correlation table size mismatch");
    const std::vector<std::size_t> filled = sample::filledSlots(
        state.at("empty"), table_.size(), "correlation");
    const Json::Array &rows = sample::slotValues(
        state, "table", filled.size(), "correlation");
    tick_ = state.at("tick").asUint();
    lastMissLine_ = state.at("last_miss_line").asUint();
    std::fill(table_.begin(), table_.end(), Entry{});
    for (std::size_t k = 0; k < filled.size(); ++k) {
        Entry &e = table_[filled[k]];
        const Json &je = rows[k];
        e.valid = true;
        e.tag = je.at("tag").asUint();
        e.lru = je.at("lru").asUint();
        for (const Json &a : je.at("succ").items())
            e.succ.push_back(a.asUint());
    }
}

void
CorrelationDataPrefetcher::addCheckpointParts(sample::CheckpointParts &parts)
{
    parts.correlation = this;
}

} // namespace cgp
