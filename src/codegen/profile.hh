/**
 * @file
 * ExecutionProfile: dynamic weights gathered from a profiling replay
 * of a trace, feeding the OM (Pettis-Hansen) layout pass — exactly
 * the feedback file the paper generates by running wisc-prof and
 * wisc+tpch through instrumented binaries.
 */

#ifndef CGP_CODEGEN_PROFILE_HH
#define CGP_CODEGEN_PROFILE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hh"

namespace cgp
{

/**
 * Flat counters indexed by FunctionId: recording an event is a
 * vector index plus a scan of a short list, never a map update.  The
 * read side hands out views in no particular order (each consumer
 * sorts what it needs) and never changes on a const profile, so one
 * built profile can be read by concurrent jobs.
 */
class ExecutionProfile
{
  public:
    /** One call edge out of a caller. */
    struct CallEdge
    {
        FunctionId callee;
        std::uint64_t weight;
    };

    /** One block-to-block transition inside a function. */
    struct BlockEdge
    {
        std::uint16_t from;
        std::uint16_t to;
        std::uint64_t weight;
    };

    /// @{ Inline: the profiling replay records every call, entry
    /// and block crossing.  The hit of the last lookup sits at the
    /// front of its list, so a repeat costs one compare.
    /** Record one dynamic call edge caller -> callee. */
    void
    onCall(FunctionId caller, FunctionId callee)
    {
        ++totalCalls_;
        if (caller < funcs_.size()) {
            std::vector<CallEdge> &edges = funcs_[caller].callees;
            if (!edges.empty() && edges.front().callee == callee) {
                ++edges.front().weight;
                return;
            }
        }
        addCall(counts(caller), callee, 1);
    }

    /** Record a block-to-block transition inside @p fid. */
    void
    onBlockEdge(FunctionId fid, std::uint16_t from, std::uint16_t to)
    {
        if (fid < funcs_.size()) {
            Counts &c = funcs_[fid];
            if (from < c.firstFrom.size()) {
                const std::uint32_t i = c.firstFrom[from];
                if (i != noEdge && c.blockEdges[i].to == to) {
                    ++c.blockEdges[i].weight;
                    return;
                }
            }
        }
        addBlockEdge(counts(fid), from, to, 1);
    }

    /** Record a function entry (including trace roots). */
    void onEntry(FunctionId fid) { ++counts(fid).entries; }
    /// @}

    /** Accumulate another profile into this one (paper merges two). */
    void merge(const ExecutionProfile &other);

    /** One past the highest function id recorded; every view of a
     *  larger id is empty. */
    std::size_t functionCount() const { return funcs_.size(); }

    /** Call edges out of @p caller, one per distinct callee. */
    std::span<const CallEdge> callees(FunctionId caller) const;

    /** Block edges of @p fid, one per distinct (from, to). */
    std::span<const BlockEdge> blockEdges(FunctionId fid) const;

    /** Entry count of a function (0 if never entered). */
    std::uint64_t entryCount(FunctionId fid) const;

    /** Total dynamic calls recorded. */
    std::uint64_t totalCalls() const { return totalCalls_; }

  private:
    static constexpr std::uint32_t noEdge = ~0u;

    struct Counts
    {
        std::uint64_t entries = 0;
        std::vector<CallEdge> callees;
        std::vector<BlockEdge> blockEdges;
        /** By source block: index in blockEdges of the edge from it
         *  hit last, or noEdge; nextFrom links each edge to the next
         *  one with the same source. */
        std::vector<std::uint32_t> firstFrom;
        std::vector<std::uint32_t> nextFrom;
    };

    Counts &
    counts(FunctionId fid)
    {
        if (fid >= funcs_.size())
            funcs_.resize(static_cast<std::size_t>(fid) + 1);
        return funcs_[fid];
    }

    static void addCall(Counts &c, FunctionId callee, std::uint64_t w);
    static void addBlockEdge(Counts &c, std::uint16_t from,
                             std::uint16_t to, std::uint64_t w);

    std::vector<Counts> funcs_;
    std::uint64_t totalCalls_ = 0;
};

/**
 * Post-hoc analysis of a profile's call graph: reproduces the ATOM
 * measurement from paper §3.2 ("80% of the functions have calls to
 * fewer than 8 distinct functions") for our workloads.
 */
class CallGraphAnalyzer
{
  public:
    explicit CallGraphAnalyzer(const ExecutionProfile &profile);

    /** Functions observed making at least one call. */
    std::size_t callerCount() const { return calleeCounts_.size(); }

    /**
     * Fraction of calling functions with fewer than @p n distinct
     * callees.
     */
    double fractionWithFewerCalleesThan(std::size_t n) const;

    /** Largest distinct-callee count observed. */
    std::size_t maxDistinctCallees() const;

  private:
    std::vector<std::size_t> calleeCounts_;
};

} // namespace cgp

#endif // CGP_CODEGEN_PROFILE_HH
