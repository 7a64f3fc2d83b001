/**
 * @file
 * Workload construction: runs the real database system (or a SPEC
 * proxy) natively, records per-thread traces, interleaves them with
 * the OS-scheduler stub, and derives the OM feedback profile exactly
 * as the paper does (profiles of wisc-prof and wisc+tpch, merged).
 */

#ifndef CGP_HARNESS_WORKLOAD_HH
#define CGP_HARNESS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "codegen/profile.hh"
#include "codegen/registry.hh"
#include "spec/cpu2000.hh"
#include "trace/events.hh"

namespace cgp
{

/** One measurable workload: a trace plus its program identity. */
struct Workload
{
    std::string name;
    std::shared_ptr<FunctionRegistry> registry;
    std::shared_ptr<TraceBuffer> trace;

    /** OM feedback (shared across a workload set). */
    std::shared_ptr<ExecutionProfile> omProfile;

    /**
     * Per-query traces the server model's sessions draw from — the
     * same buffers `trace` was merged out of.  Null for workloads
     * without a concurrent-query structure (SPEC proxies); the
     * server then treats the whole trace as a one-query library.
     */
    std::shared_ptr<std::vector<TraceBuffer>> queryLibrary;

    /** Scheduler stub replayed at each session bind (may be null). */
    std::shared_ptr<TraceBuffer> switchStub;
};

/** The paper's four database workloads (§4.1), sharing one binary. */
struct DbWorkloadSet
{
    std::shared_ptr<FunctionRegistry> registry;
    std::vector<Workload> workloads; ///< wisc-prof, wisc-large-1,
                                     ///< wisc-large-2, wisc+tpch
    std::shared_ptr<ExecutionProfile> omProfile;
};

class WorkloadFactory
{
  public:
    /**
     * Scale factor applied to tuple counts: the CGP_SCALE environment
     * variable when all of it parses as a finite number > 0, else
     * (with a warning) the default, 0.25, which keeps full-suite
     * simulations to minutes.
     */
    static double scale();

    /** Scheduling quantum in instructions for query interleaving. */
    static std::uint64_t quantumInstrs();

    /** Build all four DB workloads plus the merged OM profile,
     *  at the environment scale (CGP_SCALE). */
    static DbWorkloadSet buildDbSet();

    /** Same, at an explicit scale.  Builds are deterministic: the
     *  same @p scale always produces the same traces regardless of
     *  the environment.  Throws std::invalid_argument unless
     *  scale > 0 and every table's row count fits in 32 bits. */
    static DbWorkloadSet buildDbSet(double scale);

    /** Build one SPEC proxy workload (train input) + its profile
     *  (test input), per the paper's §5.7 methodology. */
    static Workload buildSpec(const spec::SpecProgramSpec &spec);

    /** Same, at an explicit scale (see buildDbSet(double)). */
    static Workload buildSpec(const spec::SpecProgramSpec &spec,
                              double scale);

    /** All seven CPU2000 proxies. */
    static std::vector<Workload> buildCpu2000Suite();

    /** Same, at an explicit scale (see buildDbSet(double)). */
    static std::vector<Workload> buildCpu2000Suite(double scale);
};

} // namespace cgp

#endif // CGP_HARNESS_WORKLOAD_HH
