#include "dprefetch/semantic.hh"

#include <stdexcept>

#include "sample/checkpoint.hh"
#include "util/bitops.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace cgp
{

SemanticDataPrefetcher::SemanticDataPrefetcher(
    Cache &l1d, const SemanticConfig &config)
    : l1d_(l1d), config_(config),
      recent_(config.dedupEntries, invalidAddr)
{
    cgp_assert(config_.lines > 0 && config_.btreeLines > 0,
               "semantic prefetcher must cover at least one line");
    cgp_assert(config_.dedupEntries > 0 &&
                   isPowerOfTwo(config_.dedupEntries),
               "dedup filter size must be a power of two");
}

bool
SemanticDataPrefetcher::recentlyHinted(Addr line)
{
    const std::size_t idx = static_cast<std::size_t>(
        (line / l1d_.lineBytes()) & (config_.dedupEntries - 1));
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
        ? config_.btreeLines
        : config_.lines;

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
    Json lines = Json::array();
    for (Addr line : recent_)
        lines.push(line);
    j.set("recent", std::move(lines));
    return j;
}

void
SemanticDataPrefetcher::loadState(const Json &state)
{
    if (state.at("entries").asUint() != recent_.size())
        throw std::runtime_error(
            "semantic checkpoint dedup-filter size mismatch");
    const Json &lines = state.at("recent");
    if (lines.size() != recent_.size())
        throw std::runtime_error(
            "semantic checkpoint recent-array size mismatch");
    for (std::size_t i = 0; i < recent_.size(); ++i)
        recent_[i] = lines[i].asUint();
}

void
SemanticDataPrefetcher::addCheckpointParts(sample::CheckpointParts &parts)
{
    parts.semantic = this;
}

} // namespace cgp
