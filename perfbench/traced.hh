/**
 * @file
 * The traced run: the same jobs as the timed run, on machines the
 * benchmark assembles itself from the simulator's public constructors
 * so it can wrap the layer interfaces (TraceSource, InstrPrefetcher,
 * DataPrefetcher, checkpoint hooks) in timing and counting decorators.
 *
 * Coarse boundaries (layout build, Core::run, DbServer::run,
 * sample::runSampled, expander drains) are kept as individual spans;
 * per-call boundaries (trace pulls, prefetch hooks) are folded into one
 * span per job carrying the call count and the summed host time.  All
 * spans stay in memory until the run writes them out.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/campaign.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Calls and host time accumulated at one per-call boundary. */
struct Tally
{
    std::uint64_t calls = 0;
    Clock::duration time{};

    void
    add(Clock::duration d)
    {
        ++calls;
        time += d;
    }

    double
    seconds() const
    {
        return std::chrono::duration<double>(time).count();
    }
};

struct Span
{
    std::string name;        ///< "<layer>.<boundary>"
    std::string job;         ///< "workload|label", empty for run scope
    double start = 0.0;      ///< seconds since the tracer's epoch
    double seconds = 0.0;    ///< duration (summed for per-call spans)
    std::uint64_t calls = 1; ///< calls folded into this span
    bool folded = false;     ///< a per-call boundary's job total
};

class Tracer
{
  public:
    /** Seconds since construction. */
    double now() const;

    void record(std::string name, std::string job, double start,
                double seconds);

    /** Record a per-call boundary's total for one job. */
    void recordFolded(std::string name, std::string job, double start,
                      const Tally &tally);

    /** Summed duration / call count of every span called @p name,
     *  optionally restricted to one job. */
    double seconds(std::string_view name,
                   std::string_view job = {}) const;
    std::uint64_t calls(std::string_view name) const;

    /** Write all spans as Chrome trace-event JSON (chrome://tracing,
     *  Perfetto).  Per-call spans go on their own track. */
    void writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/** Simulated counters the traced machine exposes beyond SimResult. */
struct MachineExtras
{
    std::uint64_t fetchStallCycles = 0; ///< Σ Core::fetchIcacheStallCycles
    std::uint64_t idleCycles = 0;       ///< Σ Core::idleCycles
    std::uint64_t portWaitCycles = 0;   ///< L2 port backlog wait
};

struct TracedJob
{
    cgp::SimResult result;
    MachineExtras extras;
};

/**
 * Run @p job on a machine assembled here, recording spans under the
 * job's key.  Sampled jobs save their warm-state checkpoint into a
 * sealed store under @p checkpointDir (a fresh directory, so the run
 * cuts a checkpoint exactly as the timed run does).  The result must
 * equal the untraced runSimulation result for the same job.
 */
TracedJob runTracedJob(const cgp::Workload &workload,
                       const cgp::exp::JobSpec &job,
                       const std::string &checkpointDir, Tracer &tracer);

/** One trace expanded to the end with no machine attached. */
struct Drain
{
    std::uint64_t instrs = 0;
    double seconds = 0.0;
};

/**
 * Drain an InstructionExpander over @p workload's trace, bound to the
 * layout and instruction scale @p config uses.  The events come
 * through the same pull decorator the traced jobs use, so the drain
 * costs what expansion costs inside a traced run.
 */
Drain drainExpander(const cgp::Workload &workload,
                    const cgp::SimConfig &config);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
