/**
 * @file
 * Per-window statistical estimators for sampled simulation
 * (DESIGN.md §11).  Every detailed window contributes one
 * observation per metric; the estimator reports the sample mean, the
 * standard error of the mean, and a conservative 95% band that is
 * the union of the normal-approximation interval (mean ± 1.96·SEM)
 * and the nearest-rank [2.5th, 97.5th] percentile envelope — wide
 * enough to be honest at the small window counts short runs produce.
 */

#ifndef CGP_SAMPLE_ESTIMATOR_HH
#define CGP_SAMPLE_ESTIMATOR_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace cgp::sample
{

/** One metric's sampled estimate with its 95% confidence band. */
struct SampledEstimate
{
    std::uint64_t samples = 0;
    double mean = 0.0;
    double sem = 0.0; ///< standard error of the mean
    double ciLow = 0.0;
    double ciHigh = 0.0;

    /** Does the 95% band contain @p value? */
    bool
    contains(double value) const
    {
        return samples > 0 && value >= ciLow && value <= ciHigh;
    }

    bool operator==(const SampledEstimate &) const = default;
};

/** Accumulates per-window observations of one metric. */
class WindowEstimator
{
  public:
    void add(double observation);

    std::uint64_t samples() const { return samples_.size(); }

    /** Summarize (zeroed estimate when no samples arrived). */
    SampledEstimate estimate() const;

  private:
    std::vector<double> samples_;
};

/**
 * Nearest-rank percentile of an unsorted sample set; @p q is clamped
 * to [0, 100] and non-finite values are treated as 50.  Returns 0
 * for an empty sample (same convention as server/stats.hh).
 */
double nearestRankPercentile(std::vector<double> samples, double q);

/** The sampled-run block of SimResult. */
struct SampledStats
{
    std::uint64_t windows = 0;
    Cycle detailedCycles = 0; ///< cycles actually simulated in detail
    std::uint64_t detailedInstrs = 0;
    std::uint64_t warmedInstrs = 0; ///< fast-forwarded (incl. warmup)
    Cycle skippedCycles = 0; ///< clock advanced over warmed regions
    bool checkpointUsed = false;
    bool checkpointSaved = false;

    SampledEstimate cpi;
    SampledEstimate l1iMissRate;
    SampledEstimate l1dMissRate;
    SampledEstimate fetchStallPerInstr;

    bool operator==(const SampledStats &) const = default;
};

} // namespace cgp::sample

#endif // CGP_SAMPLE_ESTIMATOR_HH
