/**
 * @file
 * Data prefetcher interface — the D-side counterpart of
 * InstrPrefetcher.
 *
 * The core's load/store issue path notifies the active data
 * prefetcher of every demand access to the L1-D (with its PC and
 * hit/miss outcome) and of every true miss; additionally, a semantic
 * channel delivers hints the workload recorded while it executed
 * (B-tree child nodes, next scan slots — see DataHintKind).
 * Prefetchers respond by issuing line prefetches into the L1 D-cache
 * with AccessSource::DataPrefetch, so D-side useful/late/polluting
 * classification stays separate from the I-side prefetchers'.
 *
 * Downstream users can implement this interface to plug their own
 * data prefetcher into the simulator, exactly as with the I-side
 * interface (see examples/custom_prefetcher.cpp).
 */

#ifndef CGP_DPREFETCH_DPREFETCHER_HH
#define CGP_DPREFETCH_DPREFETCHER_HH

#include "mem/cache.hh"
#include "trace/events.hh"
#include "util/types.hh"

namespace cgp
{

namespace sample
{
struct CheckpointParts;
}

class DataPrefetcher
{
  public:
    virtual ~DataPrefetcher() = default;

    /**
     * A demand load/store issued to the L1-D.
     * @param pc address of the load/store instruction
     * @param addr data address accessed
     * @param is_write true for stores
     * @param miss true when the access missed array and MSHRs
     */
    virtual void onAccess(Addr pc, Addr addr, bool is_write,
                          bool miss, Cycle now)
    {
        (void)pc;
        (void)addr;
        (void)is_write;
        (void)miss;
        (void)now;
    }

    /** A demand access missed the L1-D array and MSHRs. */
    virtual void onMiss(Addr pc, Addr addr, Cycle now)
    {
        (void)pc;
        (void)addr;
        (void)now;
    }

    /** A semantic hint recorded by the workload (storage manager). */
    virtual void onHint(DataHintKind kind, Addr addr, Cycle now)
    {
        (void)kind;
        (void)addr;
        (void)now;
    }

    /**
     * Register the engine's warm state in a sampled run's checkpoint
     * (sample/checkpoint.hh).  Engines with a table set their own
     * section; wrappers forward to what they wrap.
     */
    virtual void addCheckpointParts(sample::CheckpointParts &parts)
    {
        (void)parts;
    }

    virtual const char *name() const = 0;
};

/** Baseline: no data prefetching. */
class NullDataPrefetcher : public DataPrefetcher
{
  public:
    const char *name() const override { return "none"; }
};

} // namespace cgp

#endif // CGP_DPREFETCH_DPREFETCHER_HH
