/**
 * @file
 * Markov / access-to-miss correlation data prefetcher (AMC-style).
 *
 * A bounded, set-associative table maps a miss line to the lines
 * that missed right after it, in MRU order.  On a demand miss the
 * table records the (previous miss -> this miss) transition, then
 * prefetches up to `degree` recorded successors of the current miss.
 * Pointer-chasing
 * access patterns — the premise the paper applies to instruction
 * fetch — repeat their miss sequences, which is exactly what this
 * table captures on the data side.
 */

#ifndef CGP_DPREFETCH_CORRELATION_HH
#define CGP_DPREFETCH_CORRELATION_HH

#include <cstdint>
#include <vector>

#include "dprefetch/dprefetcher.hh"
#include "util/bitops.hh"

namespace cgp
{

class Json;

class CorrelationDataPrefetcher : public DataPrefetcher
{
  public:
    /** Total table entries (trigger lines tracked). */
    static constexpr unsigned entries = 1024;

    /** Set associativity of the table. */
    static constexpr unsigned assoc = 4;

    /** Successor lines remembered per trigger (MRU order). */
    static constexpr unsigned successors = 4;

    /** Successors prefetched per lookup. */
    static constexpr unsigned degree = 2;

    explicit CorrelationDataPrefetcher(Cache &l1d);

    void onMiss(Addr pc, Addr addr, Cycle now) override;

    const char *name() const override { return "corr"; }

    /// @{ Introspection for tests.
    std::size_t entryCount() const;
    /** Recorded successors of @p line (MRU first); empty if absent. */
    std::vector<Addr> successorsOf(Addr line) const;
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t prefetchesRequested() const { return requested_; }
    /// @}

    /// @{ Warm-state checkpointing of the correlation (AMC) table's
    /// valid entries (a sparse section, see sample/checkpoint.hh) and
    /// the last-miss trigger.
    Json saveState() const;
    void loadState(const Json &state);
    void addCheckpointParts(sample::CheckpointParts &parts) override;
    /// @}

  private:
    struct Entry
    {
        Addr tag = invalidAddr;
        std::vector<Addr> succ; ///< MRU-ordered successor lines
        std::uint64_t lru = 0;
        bool valid = false;
    };

    std::size_t setBase(Addr line) const;
    Entry *find(Addr line);
    const Entry *find(Addr line) const;
    Entry &findOrAlloc(Addr line);
    void record(Addr prev_line, Addr line);

    static constexpr std::uint32_t sets = entries / assoc;
    static_assert(entries % assoc == 0 && isPowerOfTwo(sets),
                  "correlation entries must fill a power-of-two set count");

    Cache &l1d_;
    std::vector<Entry> table_;
    Addr lastMissLine_ = invalidAddr;
    std::uint64_t tick_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t requested_ = 0;
};

} // namespace cgp

#endif // CGP_DPREFETCH_CORRELATION_HH
