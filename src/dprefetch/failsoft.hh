/**
 * @file
 * Fail-soft data-prefetcher decorator — the D-side twin of
 * FailSoftPrefetcher: every hook goes through a FailSoftGuard, so
 * the first exception disables the inner prefetcher and the run
 * continues without data prefetching (graceful degradation).
 */

#ifndef CGP_DPREFETCH_FAILSOFT_HH
#define CGP_DPREFETCH_FAILSOFT_HH

#include <memory>
#include <string>

#include "dprefetch/dprefetcher.hh"
#include "util/failsoft.hh"

namespace cgp
{

class FailSoftDataPrefetcher : public DataPrefetcher
{
  public:
    explicit FailSoftDataPrefetcher(
        std::unique_ptr<DataPrefetcher> inner)
        : guard_(std::move(inner), "data prefetch")
    {
    }

    void
    onAccess(Addr pc, Addr addr, bool is_write, bool miss,
             Cycle now) override
    {
        guard_.call("onAccess", [&](DataPrefetcher &p) {
            p.onAccess(pc, addr, is_write, miss, now);
        });
    }

    void
    onMiss(Addr pc, Addr addr, Cycle now) override
    {
        guard_.call("onMiss",
                    [&](DataPrefetcher &p) { p.onMiss(pc, addr, now); });
    }

    void
    onHint(DataHintKind kind, Addr addr, Cycle now) override
    {
        guard_.call("onHint", [&](DataPrefetcher &p) {
            p.onHint(kind, addr, now);
        });
    }

    void
    addCheckpointParts(sample::CheckpointParts &parts) override
    {
        guard_.call("addCheckpointParts", [&](DataPrefetcher &p) {
            p.addCheckpointParts(parts);
        });
    }

    const char *name() const override { return guard_.name(); }

    /** True once the inner prefetcher has been disabled. */
    bool degraded() const { return guard_.degraded(); }

    /** What disabled it (empty while healthy). */
    const std::string &reason() const { return guard_.reason(); }

  private:
    FailSoftGuard<DataPrefetcher> guard_;
};

} // namespace cgp

#endif // CGP_DPREFETCH_FAILSOFT_HH
