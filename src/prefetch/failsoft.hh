/**
 * @file
 * Fail-soft prefetcher decorator: forwards every hook, setWarming
 * and addCheckpointParts included, to the inner prefetcher through a
 * FailSoftGuard, so the first exception disables the prefetcher and
 * the run continues prefetch-less from that point (graceful
 * degradation).
 */

#ifndef CGP_PREFETCH_FAILSOFT_HH
#define CGP_PREFETCH_FAILSOFT_HH

#include <memory>
#include <string>

#include "prefetch/prefetcher.hh"
#include "util/failsoft.hh"

namespace cgp
{

class FailSoftPrefetcher : public InstrPrefetcher
{
  public:
    explicit FailSoftPrefetcher(std::unique_ptr<InstrPrefetcher> inner)
        : guard_(std::move(inner), "prefetch")
    {
    }

    void
    onFetchLine(Addr line_addr, Cycle now) override
    {
        guard_.call("onFetchLine", [&](InstrPrefetcher &p) {
            p.onFetchLine(line_addr, now);
        });
    }

    void
    onCall(Addr callee_start, Addr caller_start, Cycle now) override
    {
        guard_.call("onCall", [&](InstrPrefetcher &p) {
            p.onCall(callee_start, caller_start, now);
        });
    }

    void
    onReturn(Addr returnee_start, Addr returning_start,
             Cycle now) override
    {
        guard_.call("onReturn", [&](InstrPrefetcher &p) {
            p.onReturn(returnee_start, returning_start, now);
        });
    }

    /** Forwarded so the inner engine can freeze its counters. */
    void
    setWarming(bool warming) override
    {
        guard_.call("setWarming",
                    [&](InstrPrefetcher &p) { p.setWarming(warming); });
    }

    void
    addCheckpointParts(sample::CheckpointParts &parts) override
    {
        guard_.call("addCheckpointParts", [&](InstrPrefetcher &p) {
            p.addCheckpointParts(parts);
        });
    }

    const char *name() const override { return guard_.name(); }

    /** True once the inner prefetcher has been disabled. */
    bool degraded() const { return guard_.degraded(); }

    /** What disabled it (empty while healthy). */
    const std::string &reason() const { return guard_.reason(); }

  private:
    FailSoftGuard<InstrPrefetcher> guard_;
};

} // namespace cgp

#endif // CGP_PREFETCH_FAILSOFT_HH
