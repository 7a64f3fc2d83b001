/**
 * @file
 * A fixed reference kernel that measures how fast the host runs at a
 * given moment.
 *
 * On a shared VM the host's speed moves with other tenants' load, for
 * minutes at a time, so the seconds a job takes swing between runs of
 * the same code.  The benchmark times this kernel between jobs and
 * rescales each job's seconds by the kernel's nominal / measured time.
 * The kernel is a small simulator of its own, mostly memory-bound (an
 * instruction stream through two levels of cache tags, a branch
 * predictor and a call-target table) and partly compute-bound (a
 * register scoreboard), so host contention slows it much as it slows the
 * simulator.  It lives in perfbench/ and does not use src/, so a change
 * to the simulator does not change it.
 */

#ifndef PERFBENCH_CALIB_HH
#define PERFBENCH_CALIB_HH

#include <cstdint>

namespace perfbench
{

/** Host seconds of one calibrateOnce(): about the fastest seen on a 4-vCPU
 *  Intel Xeon KVM guest (g++ 12, -O3).  It only sets the unit of the
 *  rescaled times, which read as host seconds at that speed. */
constexpr double calibNominalSeconds = 0.0125;

/** Run the reference kernel once and return its host seconds.  The
 *  kernel's checksum is folded into @p sink so it cannot be elided. */
double calibrateOnce(std::uint64_t &sink);

} // namespace perfbench

#endif // PERFBENCH_CALIB_HH
