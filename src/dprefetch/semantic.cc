#include "dprefetch/semantic.hh"

#include <stdexcept>

#include "sample/checkpoint.hh"
#include "util/json.hh"

namespace cgp
{

SemanticDataPrefetcher::SemanticDataPrefetcher(Cache &l1d)
    : l1d_(l1d), recent_(dedupEntries, invalidAddr)
{
}

bool
SemanticDataPrefetcher::recentlyHinted(Addr line)
{
    const std::size_t idx = static_cast<std::size_t>(
        (line / l1d_.lineBytes()) & (dedupEntries - 1));
    if (recent_[idx] == line)
        return true;
    recent_[idx] = line;
    return false;
}

void
SemanticDataPrefetcher::onHint(DataHintKind kind, Addr addr,
                               Cycle now)
{
    ++hintsSeen_;
    const unsigned span = (kind == DataHintKind::BtreeChild ||
                           kind == DataHintKind::BtreeNextLeaf)
        ? btreeLines
        : lines;

    const Addr base = l1d_.lineAlign(addr);
    for (unsigned i = 0; i < span; ++i) {
        const Addr line = base +
            static_cast<Addr>(i) * l1d_.lineBytes();
        if (recentlyHinted(line)) {
            ++linesDeduped_;
            continue;
        }
        ++requested_;
        l1d_.prefetch(line, now, AccessSource::DataPrefetch);
    }
}

Json
SemanticDataPrefetcher::saveState() const
{
    Json j = Json::object();
    j.set("entries", static_cast<std::uint64_t>(recent_.size()));
    Json recent = Json::array();
    for (Addr line : recent_)
        recent.push(line);
    j.set("recent", std::move(recent));
    return j;
}

void
SemanticDataPrefetcher::loadState(const Json &state)
{
    if (state.at("entries").asUint() != recent_.size())
        throw std::runtime_error(
            "semantic checkpoint dedup-filter size mismatch");
    const Json &recent = state.at("recent");
    if (recent.size() != recent_.size())
        throw std::runtime_error(
            "semantic checkpoint recent-array size mismatch");
    for (std::size_t i = 0; i < recent_.size(); ++i)
        recent_[i] = recent[i].asUint();
}

void
SemanticDataPrefetcher::addCheckpointParts(sample::CheckpointParts &parts)
{
    parts.semantic = this;
}

} // namespace cgp
