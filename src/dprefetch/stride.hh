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
#include "util/bitops.hh"

namespace cgp
{

class Json;

class StrideDataPrefetcher : public DataPrefetcher
{
  public:
    /** Direct-mapped table entries (per-PC). */
    static constexpr unsigned tableEntries = 256;

    /** Strides prefetched ahead once confident. */
    static constexpr unsigned degree = 2;

    /** Confidence needed before prefetches issue. */
    static constexpr unsigned promoteAt = 2;

    /** Saturation cap of the confidence counter. */
    static constexpr unsigned maxConfidence = 3;

    explicit StrideDataPrefetcher(Cache &l1d);

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
    std::vector<Entry> table_;
    std::uint64_t requested_ = 0;

    static_assert(isPowerOfTwo(tableEntries),
                  "stride table size must be a power of two");
    static_assert(promoteAt > 0 && promoteAt <= maxConfidence,
                  "promoteAt must lie within the confidence range");
};

} // namespace cgp

#endif // CGP_DPREFETCH_STRIDE_HH
