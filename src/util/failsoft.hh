/**
 * @file
 * The guard shared by the fail-soft prefetcher decorators
 * (FailSoftPrefetcher, FailSoftDataPrefetcher).  Prefetching is an
 * optimisation, so a fault inside an engine — an injected crash
 * point, a corrupt trace observation, any thrown exception — must
 * never take down the simulated machine.  Every hook runs through
 * call(); on the first exception the guard logs an error event and
 * permanently disables the engine, and the run continues without it
 * from that point (graceful degradation).
 */

#ifndef CGP_UTIL_FAILSOFT_HH
#define CGP_UTIL_FAILSOFT_HH

#include <exception>
#include <memory>
#include <string>

#include "util/logging.hh"

namespace cgp
{

template <class Engine>
class FailSoftGuard
{
  public:
    /**
     * @param kind what the engine does, as the log names it
     *        ("prefetch", "data prefetch").
     */
    FailSoftGuard(std::unique_ptr<Engine> inner, const char *kind)
        : inner_(std::move(inner)), kind_(kind)
    {
        cgp_assert(inner_ != nullptr, "fail-soft ", kind_,
                   " wrapper needs an inner engine");
    }

    /** Run @p hook on the engine unless disabled; a throw disables
     *  the engine instead of propagating. */
    template <class Hook>
    void
    call(const char *hookName, Hook &&hook)
    {
        if (degraded_)
            return;
        try {
            hook(*inner_);
        } catch (const std::exception &e) {
            disable(hookName, e.what());
        }
    }

    const char *
    name() const
    {
        return degraded_ ? "none (degraded)" : inner_->name();
    }

    /** True once the engine has been disabled. */
    bool degraded() const { return degraded_; }

    /** What disabled it (empty while healthy). */
    const std::string &reason() const { return reason_; }

  private:
    void
    disable(const char *hookName, const std::string &why)
    {
        degraded_ = true;
        reason_ = why;
        cgp_error(kind_, "er '", inner_->name(), "' faulted in ",
                  hookName, " (", why, "); continuing without ",
                  kind_);
    }

    std::unique_ptr<Engine> inner_;
    const char *kind_;
    bool degraded_ = false;
    std::string reason_;
};

} // namespace cgp

#endif // CGP_UTIL_FAILSOFT_HH
