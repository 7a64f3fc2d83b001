/**
 * @file
 * Data-prefetch engine selection: the DPrefetchConfig the harness
 * exposes (which engine runs; each engine's table sizes are constants
 * of its own), plus the factory that assembles the requested
 * engine (including the combined stride+correlation+semantic stack,
 * composed with MultiDataPrefetcher).
 */

#ifndef CGP_DPREFETCH_FACTORY_HH
#define CGP_DPREFETCH_FACTORY_HH

#include <memory>
#include <vector>

#include "dprefetch/dprefetcher.hh"

namespace cgp
{

enum class DataPrefetchKind : std::uint8_t
{
    None,
    Stride,      ///< per-PC stride table
    Correlation, ///< miss-correlation (Markov/AMC) table
    Semantic,    ///< DB hints from the storage manager
    Combined     ///< stride + correlation + semantic together
};

const char *dataPrefetchKindName(DataPrefetchKind kind);

struct DPrefetchConfig
{
    DataPrefetchKind kind = DataPrefetchKind::None;
};

/** Fan every event out to a set of engines (the Combined stack). */
class MultiDataPrefetcher : public DataPrefetcher
{
  public:
    explicit MultiDataPrefetcher(
        std::vector<std::unique_ptr<DataPrefetcher>> parts);

    void onAccess(Addr pc, Addr addr, bool is_write, bool miss,
                  Cycle now) override;
    void onMiss(Addr pc, Addr addr, Cycle now) override;
    void onHint(DataHintKind kind, Addr addr, Cycle now) override;
    void addCheckpointParts(sample::CheckpointParts &parts) override;

    const char *name() const override { return "combined"; }

  private:
    std::vector<std::unique_ptr<DataPrefetcher>> parts_;
};

/**
 * Build the configured engine targeting @p l1d, or nullptr for
 * DataPrefetchKind::None (the null baseline: no engine at all, so
 * the issue path pays no virtual-call overhead).
 */
std::unique_ptr<DataPrefetcher>
makeDataPrefetcher(Cache &l1d, const DPrefetchConfig &config);

} // namespace cgp

#endif // CGP_DPREFETCH_FACTORY_HH
