/**
 * @file
 * Call Graph History Cache (paper §3.2-3.3, §5.3).
 *
 * The CGHC records, per function F, the sequence of functions F
 * called during its most recent invocation, plus an index pointing
 * at the next expected callee.  Each executed call and return makes
 * two accesses:
 *
 *  call F->G:   prefetch access keyed by G (predicted target): on a
 *               hit, prefetch the function in slot[index-1] of G's
 *               entry (G's next expected callee — the index of a
 *               just-called function is 1, so its first callee);
 *               update access keyed by F: store G at slot[index-1]
 *               of F's entry and increment F's index (max 8).
 *
 *  return G->F: prefetch access keyed by F (the returnee start
 *               address, recovered from the modified RAS): on a hit,
 *               prefetch slot[index-1] of F's entry (F's next
 *               expected callee); update access keyed by G: reset
 *               G's index to 1.
 *
 *  Any access that misses allocates a fresh entry with index 1; a
 *  call-update miss additionally deposits the callee in slot 1.
 *
 * Geometries: direct-mapped single level, the paper's preferred
 * two-level arrangement (2KB L1 + 32KB L2 with swap on L2 hit), and
 * an infinite variant where every function keeps its entire most
 * recent call sequence (no 8-slot cap).  Entries are sized at 32
 * data bytes = 8 callee slots, matching the paper's observation that
 * 80% of functions call fewer than 8 distinct functions.
 */

#ifndef CGP_PREFETCH_CGHC_HH
#define CGP_PREFETCH_CGHC_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/types.hh"

namespace cgp
{

class Json;

struct CghcConfig
{
    /** First-level data array bytes (32 bytes per entry). */
    std::uint32_t l1Bytes = 2 * 1024;

    /** Second-level data array bytes; 0 = single-level CGHC. */
    std::uint32_t l2Bytes = 32 * 1024;

    /** Unbounded CGHC with full call sequences (overrides sizes). */
    bool infinite = false;

    /**
     * Set associativity of the finite levels.  The paper chose a
     * direct-mapped CGHC (assoc = 1) after finding a small one
     * performs nearly as well as infinite (§3.2); higher values let
     * the ablation benches verify that choice.
     */
    unsigned assoc = 1;

    /** Access latencies, matching the L1/L2 cache latencies (§5.3). */
    Cycle l1Latency = 1;
    Cycle l2Latency = 16;

    /// @{ Named geometries from Figure 5.
    static CghcConfig oneLevel1K();
    static CghcConfig oneLevel32K();
    static CghcConfig twoLevel1K16K();
    static CghcConfig twoLevel2K32K(); ///< the paper's chosen design
    static CghcConfig infiniteSize();
    /// @}

    std::string describe() const;
};

class Cghc
{
  public:
    /** Callee slots per finite entry (one 32-byte line). */
    static constexpr unsigned slotsPerEntry = 8;

    explicit Cghc(const CghcConfig &config);

    /** Result of a prefetch-side access. */
    struct ProbeResult
    {
        bool hit = false;
        /** Function start to prefetch; invalidAddr if none. */
        Addr prefetchTarget = invalidAddr;
        /** Access latency before the prefetch can issue. */
        Cycle delay = 1;
    };

    /** First access for a call: keyed by the predicted target. */
    ProbeResult callPrefetchAccess(Addr callee_start);

    /** Second access for a call: keyed by the caller's start. */
    void callUpdateAccess(Addr caller_start, Addr callee_start);

    /** First access for a return: keyed by the returnee's start. */
    ProbeResult returnPrefetchAccess(Addr returnee_start);

    /** Second access for a return: keyed by the returning start. */
    void returnUpdateAccess(Addr returning_start);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t accesses() const { return accesses_; }

    /**
     * Functional-warming mode: accesses keep training the history
     * cache (entries allocate, indices advance, LRU moves) but the
     * counters stay frozen — warmed calls/returns are outside the
     * measured windows.
     */
    void setWarming(bool warming) { warming_ = warming; }

    /// @{ Warm-state checkpointing: the valid entries of both finite
    /// levels (sparse sections, see sample/checkpoint.hh; loadState
    /// invalidates every other entry), or the infinite map in sorted
    /// key order for determinism, plus the LRU tick.
    Json saveState() const;
    void loadState(const Json &state);
    /// @}

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = invalidAddr;
        std::uint8_t index = 1;      ///< 1-based next-slot pointer
        std::uint8_t count = 0;      ///< filled slots
        std::uint64_t lru = 0;       ///< recency (associative mode)
        std::array<Addr, slotsPerEntry> slots = noSlots();
    };

    static constexpr std::array<Addr, slotsPerEntry>
    noSlots()
    {
        std::array<Addr, slotsPerEntry> slots{};
        slots.fill(invalidAddr);
        return slots;
    }

    /** Infinite-variant entry: full sequence, unbounded index. */
    struct InfEntry
    {
        std::uint32_t index = 1;
        std::vector<Addr> sequence;
    };

    /** Set of @p start in a level whose set mask is @p setMask. */
    static std::size_t
    setOf(Addr start, std::size_t setMask)
    {
        // Function starts are 32-byte aligned; drop those bits first
        // ("the lower order bits of the ... address", §3.2).
        return static_cast<std::size_t>((start >> 5) & setMask);
    }

    /** Find the way holding @p start in a level, or nullptr. */
    Entry *findWay(std::vector<Entry> &level, std::size_t setMask,
                   Addr start);

    /** Victim way for @p start in a level (invalid first, then LRU). */
    Entry &victimWay(std::vector<Entry> &level, std::size_t setMask,
                     Addr start);

    /**
     * Locate (or allocate) the entry for @p start, handling the
     * two-level swap.  @p delay receives the access latency.
     * @param allocate create an entry on a total miss.
     * @return pointer to the entry (possibly freshly allocated), or
     *         nullptr when missing and @p allocate is false.
     */
    Entry *lookup(Addr start, bool allocate, Cycle &delay, bool &hit);

    CghcConfig config_;
    std::size_t l1Entries_;
    std::size_t l2Entries_;
    /** Set count - 1 of each finite level (sets are a power of 2). */
    std::size_t l1SetMask_ = 0;
    std::size_t l2SetMask_ = 0;
    bool warming_ = false;
    std::uint64_t tick_ = 0;
    std::vector<Entry> l1_;
    std::vector<Entry> l2_;
    std::unordered_map<Addr, InfEntry> inf_;

    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace cgp

#endif // CGP_PREFETCH_CGHC_HH
