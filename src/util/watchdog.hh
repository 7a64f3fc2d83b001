/**
 * @file
 * Run budgets for long simulations.
 *
 * The campaign engine runs thousands of jobs; one livelocked config
 * must not wedge the whole run.  Two budgets, both enforced by the
 * core's own loop (Core::checkWatchdog), stop a runaway job:
 *
 *  - a *cycle budget* (CoreConfig::maxCycles): deterministic — a
 *    runaway simulation throws TimeoutError at the same cycle on
 *    every machine, so the job's "timed-out" classification is
 *    reproducible and resume-stable;
 *  - a *wall-clock budget* (CoreConfig::maxWallSeconds): a safety
 *    net against configs that are merely pathologically slow,
 *    checked every few thousand cycles.
 *
 * Either way the job unwinds with TimeoutError, which the campaign
 * scheduler records as a "timeout" failure.
 */

#ifndef CGP_UTIL_WATCHDOG_HH
#define CGP_UTIL_WATCHDOG_HH

#include <stdexcept>
#include <string>

namespace cgp
{

/** A run exceeded its cycle or wall-clock budget. */
class TimeoutError : public std::runtime_error
{
  public:
    explicit TimeoutError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

} // namespace cgp

#endif // CGP_UTIL_WATCHDOG_HH
