/**
 * @file
 * Per-PC stream/stride data prefetcher.
 *
 * A direct-mapped table indexed by load/store PC tracks the last
 * address and observed stride of each static memory instruction,
 * with a saturating confidence counter.  Once a stride repeats often
 * enough the prefetcher runs ahead of the access stream by `degree`
 * strides.  This is the classic tagged stride prefetcher
 * (Chen/Baer); in the DBMS traces it covers the sequential component
 * of scans (records advance by a fixed tuple size within a page).
 */

#ifndef CGP_DPREFETCH_STRIDE_HH
#define CGP_DPREFETCH_STRIDE_HH

#include <cstdint>
#include <vector>

#include "dprefetch/dprefetcher.hh"

namespace cgp
{

class Json;

struct StrideConfig
{
    /** Direct-mapped table entries (per-PC). */
    unsigned tableEntries = 256;

    /** Strides prefetched ahead once confident. */
    unsigned degree = 2;

    /** Confidence needed before prefetches issue. */
    unsigned promoteAt = 2;

    /** Saturation cap of the confidence counter. */
    unsigned maxConfidence = 3;
};

class StrideDataPrefetcher : public DataPrefetcher
{
  public:
    StrideDataPrefetcher(Cache &l1d, const StrideConfig &config = {});

    void onAccess(Addr pc, Addr addr, bool is_write, bool miss,
                  Cycle now) override;

    const char *name() const override { return "stride"; }

    /// @{ Introspection for tests.
    /** Confidence of the entry currently owned by @p pc (0 when the
     *  slot is empty or held by another PC). */
    unsigned confidenceFor(Addr pc) const;
    std::uint64_t prefetchesRequested() const { return requested_; }
    /// @}

    /// @{ Warm-state checkpointing of the per-PC table's allocated
    /// entries (a sparse section, see sample/checkpoint.hh).
    Json saveState() const;
    void loadState(const Json &state);
    void addCheckpointParts(sample::CheckpointParts &parts) override;
    /// @}

  private:
    struct Entry
    {
        Addr pc = invalidAddr;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
    };

    std::size_t indexOf(Addr pc) const;

    Cache &l1d_;
    StrideConfig config_;
    std::vector<Entry> table_;
    std::uint64_t requested_ = 0;
};

} // namespace cgp

#endif // CGP_DPREFETCH_STRIDE_HH
