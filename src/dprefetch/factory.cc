#include "dprefetch/factory.hh"

#include "dprefetch/correlation.hh"
#include "dprefetch/semantic.hh"
#include "dprefetch/stride.hh"
#include "util/logging.hh"

namespace cgp
{

const char *
dataPrefetchKindName(DataPrefetchKind kind)
{
    switch (kind) {
      case DataPrefetchKind::None:
        return "none";
      case DataPrefetchKind::Stride:
        return "stride";
      case DataPrefetchKind::Correlation:
        return "corr";
      case DataPrefetchKind::Semantic:
        return "semantic";
      case DataPrefetchKind::Combined:
        return "combined";
    }
    return "?";
}

MultiDataPrefetcher::MultiDataPrefetcher(
    std::vector<std::unique_ptr<DataPrefetcher>> parts)
    : parts_(std::move(parts))
{
    cgp_assert(!parts_.empty(), "combined prefetcher needs parts");
    for (const auto &p : parts_)
        cgp_assert(p != nullptr, "null part in combined prefetcher");
}

void
MultiDataPrefetcher::onAccess(Addr pc, Addr addr, bool is_write,
                              bool miss, Cycle now)
{
    for (auto &p : parts_)
        p->onAccess(pc, addr, is_write, miss, now);
}

void
MultiDataPrefetcher::onMiss(Addr pc, Addr addr, Cycle now)
{
    for (auto &p : parts_)
        p->onMiss(pc, addr, now);
}

void
MultiDataPrefetcher::onHint(DataHintKind kind, Addr addr, Cycle now)
{
    for (auto &p : parts_)
        p->onHint(kind, addr, now);
}

void
MultiDataPrefetcher::addCheckpointParts(sample::CheckpointParts &parts)
{
    for (auto &p : parts_)
        p->addCheckpointParts(parts);
}

std::unique_ptr<DataPrefetcher>
makeDataPrefetcher(Cache &l1d, const DPrefetchConfig &config)
{
    switch (config.kind) {
      case DataPrefetchKind::None:
        return nullptr;
      case DataPrefetchKind::Stride:
        return std::make_unique<StrideDataPrefetcher>(l1d);
      case DataPrefetchKind::Correlation:
        return std::make_unique<CorrelationDataPrefetcher>(l1d);
      case DataPrefetchKind::Semantic:
        return std::make_unique<SemanticDataPrefetcher>(l1d);
      case DataPrefetchKind::Combined: {
        std::vector<std::unique_ptr<DataPrefetcher>> parts;
        parts.push_back(std::make_unique<StrideDataPrefetcher>(l1d));
        parts.push_back(std::make_unique<CorrelationDataPrefetcher>(l1d));
        parts.push_back(std::make_unique<SemanticDataPrefetcher>(l1d));
        return std::make_unique<MultiDataPrefetcher>(
            std::move(parts));
      }
    }
    cgp_panic("unknown DataPrefetchKind");
    return nullptr;
}

} // namespace cgp
