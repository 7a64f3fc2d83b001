/**
 * @file
 * Call Graph Prefetching (the paper's primary contribution).
 *
 * CGP_N = CGHC-driven prefetching across function boundaries plus
 * plain next-N-line prefetching within a function (§3.2).  On each
 * CGHC prefetch hint, only the first N cache lines of the target
 * function are prefetched; the rest of the function is covered by
 * the NL part once control enters it.
 */

#ifndef CGP_PREFETCH_CGP_HH
#define CGP_PREFETCH_CGP_HH

#include "prefetch/cghc.hh"
#include "prefetch/nextline.hh"
#include "prefetch/prefetcher.hh"

namespace cgp
{

class CgpPrefetcher : public InstrPrefetcher
{
  public:
    /**
     * @param l1i Instruction cache prefetches land in.
     * @param cghc_config CGHC geometry (Figure 5 variants).
     * @param depth N: lines prefetched per target function, also the
     *        depth of the embedded NL prefetcher (the paper evaluates
     *        CGP_2 and CGP_4).
     */
    CgpPrefetcher(Cache &l1i, const CghcConfig &cghc_config,
                  unsigned depth);

    void onFetchLine(Addr line_addr, Cycle now) override;
    void onCall(Addr callee_start, Addr caller_start,
                Cycle now) override;
    void onReturn(Addr returnee_start, Addr returning_start,
                  Cycle now) override;

    const char *name() const override { return "cgp"; }

    /** Forwarded to the CGHC, whose counters freeze while warming;
     *  the CGHC still trains, but no function prefetch issues. */
    void setWarming(bool warming) override
    {
        warming_ = warming;
        cghc_.setWarming(warming);
    }

    /** Checkpoints the CGHC. */
    void addCheckpointParts(sample::CheckpointParts &parts) override;

    const Cghc &cghc() const { return cghc_; }
    Cghc &cghc() { return cghc_; }
    unsigned depth() const { return depth_; }

  private:
    /** Prefetch the first N lines of a function. */
    void prefetchFunction(Addr func_start, Cycle when);

    Cache &l1i_;
    Cghc cghc_;
    NextNLinePrefetcher nl_;
    unsigned depth_;
    bool warming_ = false;
};

} // namespace cgp

#endif // CGP_PREFETCH_CGP_HH
