/**
 * @file
 * Software CGP — the paper's §6 future-work variant: "CGP can be
 * implemented entirely in software by having a compiler insert
 * prefetch instructions into the code based on call graph
 * information generated from profile executions."
 *
 * Instead of a hardware CGHC learning call sequences online, the
 * compiler consults a *profile-derived, static* call graph: for each
 * function it emits prefetch instructions at the entry and after each
 * call site, targeting the statically most likely next callee.  This
 * class models those inserted instructions: the per-function callee
 * table is frozen at construction (built from an ExecutionProfile);
 * the per-activation position counter corresponds to the different
 * static code sites the prefetches are inserted at.
 *
 * Strengths and weaknesses relative to hardware CGP fall out
 * naturally: no hardware table (no capacity misses, no warmup), but
 * the predictions cannot adapt when runtime behaviour diverges from
 * the profile, and profile-absent functions get no prefetching at
 * all.  `cgpbench run ablation-swcgp` measures both effects.
 */

#ifndef CGP_PREFETCH_SOFTWARE_CGP_HH
#define CGP_PREFETCH_SOFTWARE_CGP_HH

#include <unordered_map>
#include <vector>

#include "codegen/layout.hh"
#include "codegen/profile.hh"
#include "codegen/registry.hh"
#include "prefetch/nextline.hh"
#include "prefetch/prefetcher.hh"

namespace cgp
{

class SoftwareCgpPrefetcher : public InstrPrefetcher
{
  public:
    /**
     * @param l1i Instruction cache prefetches land in.
     * @param registry The program whose call graph was profiled.
     * @param image The layout the program runs under (start addrs).
     * @param profile Profile feedback the "compiler" consumed.
     * @param depth N: lines prefetched per target (as in CGP_N).
     * @param maxCallees Callee slots the compiler materializes per
     *        function (mirrors the hardware's 8-slot entries).
     */
    SoftwareCgpPrefetcher(Cache &l1i, const FunctionRegistry &registry,
                          const CodeImage &image,
                          const ExecutionProfile &profile,
                          unsigned depth, unsigned maxCallees = 8);

    void onFetchLine(Addr line_addr, Cycle now) override;
    void onCall(Addr callee_start, Addr caller_start,
                Cycle now) override;
    void onReturn(Addr returnee_start, Addr returning_start,
                  Cycle now) override;

    const char *name() const override { return "software-cgp"; }

    /** Functions the compiler emitted prefetch code for. */
    std::size_t coveredFunctions() const { return table_.size(); }

  private:
    void prefetchFunction(Addr func_start, Cycle now);

    /** Static per-function callee sequence (profile order). */
    struct FuncInfo
    {
        std::vector<Addr> callees;
        std::uint32_t cursor = 0; ///< next static prefetch site
    };

    Cache &l1i_;
    NextNLinePrefetcher nl_;
    unsigned depth_;
    std::unordered_map<Addr, FuncInfo> table_;
};

} // namespace cgp

#endif // CGP_PREFETCH_SOFTWARE_CGP_HH
