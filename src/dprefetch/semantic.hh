/**
 * @file
 * DB-semantic data prefetcher (GrASP-style).
 *
 * The storage manager knows which page it will touch next — a B-tree
 * descent computes the child PageId several hundred instructions
 * before fixing it, a scan cursor knows its next slot — and records
 * that knowledge as Hint events in the trace (TraceRecorder::hint).
 * At simulation time the core delivers each hint to this prefetcher,
 * which covers the hinted region with line prefetches.  A small
 * recent-hint filter deduplicates the hint stream: iterator advance
 * paths re-announce the same page repeatedly, and re-prefetching a
 * line that was hinted moments ago only burns L2 port bandwidth.
 */

#ifndef CGP_DPREFETCH_SEMANTIC_HH
#define CGP_DPREFETCH_SEMANTIC_HH

#include <cstdint>
#include <vector>

#include "dprefetch/dprefetcher.hh"
#include "util/bitops.hh"

namespace cgp
{

class Json;

class SemanticDataPrefetcher : public DataPrefetcher
{
  public:
    /** Lines prefetched per heap-record / scan hint. */
    static constexpr unsigned lines = 2;

    /** Lines per B-tree node hint (header + key array). */
    static constexpr unsigned btreeLines = 4;

    /** Recently hinted lines remembered by the dedup filter. */
    static constexpr unsigned dedupEntries = 64;

    explicit SemanticDataPrefetcher(Cache &l1d);

    void onHint(DataHintKind kind, Addr addr, Cycle now) override;

    const char *name() const override { return "semantic"; }

    /// @{ Introspection for tests.
    std::uint64_t hintsSeen() const { return hintsSeen_; }
    /** Lines skipped by the recent-hint dedup filter. */
    std::uint64_t linesDeduped() const { return linesDeduped_; }
    std::uint64_t prefetchesRequested() const { return requested_; }
    /// @}

    /// @{ Warm-state checkpointing (DESIGN.md §11.3): the dedup
    /// filter is predictive state; the introspection counters are
    /// not serialized.
    Json saveState() const;
    void loadState(const Json &state);
    void addCheckpointParts(sample::CheckpointParts &parts) override;
    /// @}

  private:
    /** True (and remembered) if @p line was hinted recently. */
    bool recentlyHinted(Addr line);

    static_assert(isPowerOfTwo(dedupEntries),
                  "dedup filter size must be a power of two");

    Cache &l1d_;
    /** Direct-mapped filter of recently hinted line addresses. */
    std::vector<Addr> recent_;
    std::uint64_t hintsSeen_ = 0;
    std::uint64_t linesDeduped_ = 0;
    std::uint64_t requested_ = 0;
};

} // namespace cgp

#endif // CGP_DPREFETCH_SEMANTIC_HH
