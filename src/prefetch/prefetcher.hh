/**
 * @file
 * Instruction prefetcher interface.
 *
 * The fetch unit notifies the active prefetcher of three events:
 * a demand fetch touching a new I-cache line (the next-N-line
 * trigger), a predicted call (with the branch predictor's target and
 * the current function's start), and a predicted return (with the
 * returnee start recovered from the modified RAS).  Prefetchers
 * respond by issuing line prefetches into the L1 I-cache.
 *
 * Downstream users can implement this interface to plug their own
 * instruction prefetcher into the simulator (see
 * examples/custom_prefetcher.cpp).
 */

#ifndef CGP_PREFETCH_PREFETCHER_HH
#define CGP_PREFETCH_PREFETCHER_HH

#include "mem/cache.hh"
#include "util/types.hh"

namespace cgp
{

namespace sample
{
struct CheckpointParts;
}

class InstrPrefetcher
{
  public:
    virtual ~InstrPrefetcher() = default;

    /** Demand fetch moved to a new I-cache line.  Detailed fetch
     *  only: functional warming never calls it, so an engine must
     *  not train anything here (warming trains and never issues). */
    virtual void onFetchLine(Addr line_addr, Cycle now)
    {
        (void)line_addr;
        (void)now;
    }

    /**
     * A call was fetched and its target predicted.
     * @param callee_start predicted target (function start address)
     * @param caller_start start address of the calling function, or
     *        invalidAddr when executing untraced root code
     */
    virtual void onCall(Addr callee_start, Addr caller_start, Cycle now)
    {
        (void)callee_start;
        (void)caller_start;
        (void)now;
    }

    /**
     * A return was fetched and predicted via the modified RAS.
     * @param returnee_start start address of the function being
     *        returned into (from the RAS), or invalidAddr
     * @param returning_start start address of the returning function
     */
    virtual void onReturn(Addr returnee_start, Addr returning_start,
                          Cycle now)
    {
        (void)returnee_start;
        (void)returning_start;
        (void)now;
    }

    /**
     * Functional-warming notification (SMARTS fast-forward): the
     * engine's internal statistics counters should freeze while its
     * predictive state keeps training through onCall/onReturn.
     * Issued prefetches are already dropped at the cache, so most
     * engines ignore this; an engine may also skip issuing.
     */
    virtual void setWarming(bool warming) { (void)warming; }

    /**
     * Register the engine's warm state in a sampled run's checkpoint
     * (sample/checkpoint.hh).  Engines with predictive state set
     * their own section; wrappers forward to what they wrap.
     */
    virtual void addCheckpointParts(sample::CheckpointParts &parts)
    {
        (void)parts;
    }

    virtual const char *name() const = 0;
};

/** Baseline: no prefetching. */
class NullPrefetcher : public InstrPrefetcher
{
  public:
    const char *name() const override { return "none"; }
};

} // namespace cgp

#endif // CGP_PREFETCH_PREFETCHER_HH
