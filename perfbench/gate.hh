/**
 * @file
 * The correctness gate behind `failed` and failed_frac.  Every job
 * execution the benchmark makes is one attempt; an attempt fails when
 * any check below reports a violation.
 */

#ifndef PERFBENCH_GATE_HH
#define PERFBENCH_GATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/simulator.hh"

namespace perfbench
{

/**
 * Accounting identities one result must satisfy: no degraded
 * prefetcher, no prefetch source classifying more outcomes than it
 * issued, no cache with more misses than accesses, and — for a server
 * run — per-core instructions and bus lines summing to the aggregate.
 */
std::vector<std::string> checkIdentities(const cgp::SimResult &r);

/** Committed plus warmed instructions must equal what draining the
 *  job's expander alone emits. */
std::vector<std::string> checkInstrs(const cgp::SimResult &r,
                                     std::uint64_t drained);

/** A result that must equal another one (a repeat, or the traced run
 *  of the same job). */
std::vector<std::string> checkEqual(const cgp::SimResult &r,
                                    const cgp::SimResult &expected,
                                    const std::string &what);

/** A copy of @p r that breaks one accounting identity (self-test). */
cgp::SimResult forgeViolation(cgp::SimResult r);

class Gate
{
  public:
    /** One attempt; it fails when @p violations is not empty. */
    void attempt(const std::string &job,
                 const std::vector<std::string> &violations);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    double
    failedFrac() const
    {
        return attempted_ == 0
            ? 0.0
            : static_cast<double>(failed_)
                / static_cast<double>(attempted_);
    }

    /** "job: violation" lines, in the order they were found. */
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

} // namespace perfbench

#endif // PERFBENCH_GATE_HH
