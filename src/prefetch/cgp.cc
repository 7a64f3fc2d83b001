#include "prefetch/cgp.hh"

#include "fault/fault.hh"
#include "sample/checkpoint.hh"
#include "util/logging.hh"

namespace cgp
{

CgpPrefetcher::CgpPrefetcher(Cache &l1i, const CghcConfig &cghc_config,
                             unsigned depth)
    : l1i_(l1i), cghc_(cghc_config),
      nl_(l1i, depth, AccessSource::PrefetchNL), depth_(depth)
{
    cgp_assert(depth > 0, "CGP depth must be positive");
}

void
CgpPrefetcher::prefetchFunction(Addr func_start, Cycle when)
{
    if (fault::hit("prefetch.issue"))
        throw fault::TransientIoError("injected CGP issue fault");
    const Addr line = l1i_.lineBytes();
    const Addr base = l1i_.lineAlign(func_start);
    for (unsigned i = 0; i < depth_; ++i) {
        l1i_.prefetch(base + i * line, when,
                      AccessSource::PrefetchCGHC);
    }
}

void
CgpPrefetcher::onFetchLine(Addr line_addr, Cycle now)
{
    // Within a function boundary CGP relies on plain NL (§3.2).
    nl_.onFetchLine(line_addr, now);
}

void
CgpPrefetcher::onCall(Addr callee_start, Addr caller_start, Cycle now)
{
    if (callee_start != invalidAddr) {
        const auto probe = cghc_.callPrefetchAccess(callee_start);
        if (probe.prefetchTarget != invalidAddr && !warming_) {
            // The prefetch issues the cycle after the CGHC hit
            // (§3.3); an L2-CGHC hit adds that level's latency.
            prefetchFunction(probe.prefetchTarget, now + probe.delay);
        }
        if (caller_start != invalidAddr) {
            if (fault::hit("prefetch.train"))
                throw fault::TransientIoError(
                    "injected CGHC train fault");
            cghc_.callUpdateAccess(caller_start, callee_start);
        }
    }
}

void
CgpPrefetcher::onReturn(Addr returnee_start, Addr returning_start,
                        Cycle now)
{
    if (returnee_start != invalidAddr) {
        const auto probe = cghc_.returnPrefetchAccess(returnee_start);
        if (probe.prefetchTarget != invalidAddr && !warming_)
            prefetchFunction(probe.prefetchTarget, now + probe.delay);
    }
    if (returning_start != invalidAddr) {
        if (fault::hit("prefetch.train"))
            throw fault::TransientIoError("injected CGHC train fault");
        cghc_.returnUpdateAccess(returning_start);
    }
}

void
CgpPrefetcher::addCheckpointParts(sample::CheckpointParts &parts)
{
    parts.cghc = &cghc_;
}

} // namespace cgp
